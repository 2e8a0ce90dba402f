"""Warm-start workflow on user-supplied data.

When a modest labeled set already exists, a strategy can be learned on
that data instead of on synthetic clouds, tailoring the selection rule to
the application.  The demo plays both roles with one file:

1. write a dataset to CSV (stand-in for "your data") and read it back;
2. learn a strategy on one half of it, simulating acquisitions there;
3. run warm-start active learning on the other half, starting from 20
   labeled points, comparing the tailored strategy to the baselines.
"""

import argparse
from pathlib import Path

from lalearn.artifacts import summary_to_csv
from lalearn.data import gen_banana, load_csv, save_csv, split
from lalearn.forest import ForestConfig, regressor_config
from lalearn.harness import run_repeated
from lalearn.strategies import RandomStrategy, UncertaintyStrategy
from lalearn.training import MonteCarloConfig, build_lal

OUT = Path(__file__).parent / "output"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repetitions", type=int, default=15)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    csv_path = OUT / "crescents.csv"
    save_csv(gen_banana(2000, noise=0.2, seed=23), csv_path)
    data = load_csv(csv_path, name="crescents")
    print(f"round-tripped {len(data)} rows through {csv_path}")

    strategy_half, experiment_half = split(data, 0.5, seed=4)
    build_train, build_test = split(strategy_half, 0.4, seed=5)
    print("learning a strategy on the first half of the data...")
    mc = MonteCarloConfig(size_min=2, size_max=20, initializations=5, candidates=8,
                          classifier=ForestConfig(n_trees=50, features_per_split=1),
                          regressor=regressor_config(n_trees=100, min_leaf_size=60),
                          seed=29)
    tailored, _ = build_lal(mc, build_train, build_test, "independent",
                            workers=args.workers)

    train, test = split(experiment_half, 0.4, seed=6)
    curves, _ = run_repeated(train, test,
                             [RandomStrategy(), UncertaintyStrategy(), tailored],
                             budget=40, metric="accuracy",
                             repetitions=args.repetitions, master_seed=30,
                             warm_start_size=20, workers=args.workers,
                             classifier_config=mc.classifier)
    summary_to_csv(curves, OUT / "warm_start_summary.csv")
    print("mean accuracy, warm start with 20 labels + 40 acquisitions:")
    for name, curve in curves.items():
        print(f"  {name:16s} start {curve.mean()[0]:.3f} -> final {curve.mean()[-1]:.3f}")
    print(f"artifacts in {OUT}")


if __name__ == "__main__":
    main()
