"""A task where the classic uncertainty heuristic backfires.

The 2x2 checkerboard is an XOR-like layout: with two labeled points the
classifier's low-confidence region runs through the middle of the board,
so uncertainty sampling keeps querying near a boundary that is simply
wrong, while whole cells stay unexplored.  Random sampling, with no ideas
at all, covers the board and wins by a wide margin.

A selection strategy learned on plain Gaussian clouds transfers to this
hostile geometry and edges past random sampling too.  That margin is a
couple of accuracy points, so it needs both a well-fed regressor (the
first run builds one, several minutes, then caches it next to the other
outputs) and a few dozen repetitions to rise above run-to-run noise.
"""

import argparse
import math
from pathlib import Path

from lalearn.artifacts import summary_to_csv
from lalearn.data import gen_checkerboard, split
from lalearn.forest import ForestConfig, regressor_config
from lalearn.harness import run_repeated
from lalearn.strategies import RandomStrategy, UncertaintyStrategy, load_strategy, \
    save_strategy
from lalearn.svg import line_plot
from lalearn.training import MonteCarloConfig, build_lal, cold_start_data

OUT = Path(__file__).parent / "output"

CLASSIFIER = ForestConfig(n_trees=50, features_per_split=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repetitions", type=int, default=30)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    strategy_file = OUT / "lal_iterative_2d.json"
    if strategy_file.exists():
        print(f"reusing {strategy_file}")
        learned = load_strategy(strategy_file)
    else:
        print("building the iterative strategy on 2-D Gaussian clouds "
              "(several minutes; hostile geometry needs a well-fed regressor)...")
        mc = MonteCarloConfig(size_min=2, size_max=32, initializations=20,
                              candidates=20, classifier=CLASSIFIER,
                              regressor=regressor_config(n_trees=100,
                                                         min_leaf_size=320),
                              seed=20260808)
        learned, _ = build_lal(mc, *cold_start_data(mc.seed, n_test=2000), "iterative",
                               workers=args.workers)
        save_strategy(learned, strategy_file)

    board = gen_checkerboard(2, 2000, seed=13)
    train, test = split(board, 0.5, seed=2)
    curves, _ = run_repeated(train, test,
                             [RandomStrategy(), UncertaintyStrategy(), learned],
                             budget=50, metric="accuracy",
                             repetitions=args.repetitions, master_seed=8,
                             classifier_config=CLASSIFIER,
                             workers=args.workers)
    summary_to_csv(curves, OUT / "checkerboard_summary.csv")
    line_plot(OUT / "checkerboard_curves.svg",
              [(name, c.budgets, c.mean()) for name, c in curves.items()],
              title="checkerboard 2x2: accuracy vs acquired labels",
              x_label="acquired labels", y_label="accuracy")

    print(f"mean accuracy after 50 acquisitions ({args.repetitions} repetitions):")
    for name, curve in curves.items():
        final = curve.at_budget(50)
        sem = float(final.std() / math.sqrt(len(final)))
        print(f"  {name:16s} {final.mean():.3f} (+/- {sem:.3f})")
    final = {name: float(c.at_budget(50).mean()) for name, c in curves.items()}
    if final["uncertainty"] < final["random"]:
        print("uncertainty sampling lost to random, as expected on XOR-like "
              "geometry")
    if final["lal_iterative"] > final["random"]:
        print("the learned strategy overtook random sampling")
    print(f"artifacts in {OUT}")


if __name__ == "__main__":
    main()
