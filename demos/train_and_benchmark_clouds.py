"""Learn a query-selection strategy and race it on fresh Gaussian clouds.

The pipeline in one sitting, at demo scale:

1. simulate thousands of "label one more point" experiments on synthetic
   two-cloud data, recording the learning state and the observed test-loss
   reduction for each candidate;
2. fit a regression forest mapping state -> expected reduction, wrap it as
   a selection strategy (both the independent and the iterative variant);
3. benchmark against random and uncertainty sampling on clouds the
   strategies have never seen, with paired initial labels per repetition.

The demo uses a reduced simulation grid so it finishes in a few minutes;
the package defaults (sizes 2..32, 10 initializations, 10 candidates)
give stronger strategies.
"""

import argparse
from pathlib import Path

from lalearn.artifacts import curve_to_csv, summary_to_csv
from lalearn.data import gen_gaussian_clouds, split
from lalearn.forest import ForestConfig, regressor_config
from lalearn.harness import run_repeated
from lalearn.strategies import RandomStrategy, UncertaintyStrategy, save_strategy
from lalearn.svg import line_plot
from lalearn.training import MonteCarloConfig, build_lal, cold_start_data

OUT = Path(__file__).parent / "output"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repetitions", type=int, default=20)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    mc = MonteCarloConfig(size_min=2, size_max=20, initializations=6, candidates=8,
                          classifier=ForestConfig(n_trees=50, features_per_split=1),
                          regressor=regressor_config(n_trees=100, min_leaf_size=80),
                          seed=11)
    representative, representative_test = cold_start_data(mc.seed)
    strategies = [RandomStrategy(), UncertaintyStrategy()]
    for method in ("independent", "iterative"):
        print(f"building the {method} strategy...")
        strategy, _ = build_lal(mc, representative, representative_test, method,
                                workers=args.workers)
        save_strategy(strategy, OUT / f"lal_{method}.json")
        strategies.append(strategy)

    print(f"benchmarking {len(strategies)} strategies, "
          f"{args.repetitions} paired repetitions...")
    data = gen_gaussian_clouds(1200, 0.5, 2.0, 2, seed=99)
    train, test = split(data, 0.5, seed=1)
    curves, _ = run_repeated(train, test, strategies, budget=60,
                             metric="accuracy", repetitions=args.repetitions,
                             master_seed=5, workers=args.workers,
                             classifier_config=mc.classifier)

    for name, curve in curves.items():
        curve_to_csv(curve, OUT / f"clouds_{name}.csv")
    summary_to_csv(curves, OUT / "clouds_summary.csv")
    line_plot(OUT / "clouds_curves.svg",
              [(name, c.budgets, c.mean()) for name, c in curves.items()],
              title="Gaussian clouds: accuracy vs acquired labels",
              x_label="acquired labels", y_label="accuracy")

    for budget in (20, 40, 60):
        print(f"  budget {budget}: " + "  ".join(
            f"{name}={curve.at_budget(budget).mean():.3f}"
            for name, curve in curves.items()))
    print(f"artifacts in {OUT}")


if __name__ == "__main__":
    main()
