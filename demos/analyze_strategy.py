"""What did the learned strategy actually learn?

Two inspections on a trained strategy and a benchmark run:

* feature importances of the embedded regressor: how much each learning
  -state coordinate (labeled-set balance, out-of-bag accuracy, ensemble
  disagreement, ..., candidate probability) drives the predicted payoff;
* the distribution of predicted probabilities of the points each strategy
  chose: uncertainty sampling piles up at 0.5 by construction, while the
  learned strategies spread out and prefer other regions entirely.

Reuses demo strategies from demos/output if present, building small ones
otherwise.
"""

import argparse
from pathlib import Path

import numpy as np

from lalearn.artifacts import histogram_to_csv, importance_report_to_csv
from lalearn.data import gen_gaussian_clouds, split
from lalearn.forest import ForestConfig, regressor_config
from lalearn.harness import probability_histogram, regressor_importance_report, run_repeated
from lalearn.strategies import UncertaintyStrategy, load_strategy
from lalearn.svg import bar_chart
from lalearn.training import MonteCarloConfig, build_lal, cold_start_data

OUT = Path(__file__).parent / "output"


def _strategy(method, workers):
    path = OUT / f"lal_{method}.json"
    if path.exists():
        return load_strategy(path)
    mc = MonteCarloConfig(size_min=2, size_max=16, initializations=5, candidates=6,
                          classifier=ForestConfig(n_trees=50, features_per_split=1),
                          regressor=regressor_config(n_trees=100, min_leaf_size=80),
                          seed=11)
    strategy, _ = build_lal(mc, *cold_start_data(mc.seed), method, workers=workers)
    return strategy


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    learned = _strategy("iterative", args.workers)
    report = regressor_importance_report(learned)
    importance_report_to_csv(report, OUT / "regressor_importances.csv")
    print("regressor feature importances:")
    for name, weight in sorted(report, key=lambda r: -r[1]):
        print(f"  {name:38s} {weight:.3f}")

    data = gen_gaussian_clouds(1200, 0.5, 2.0, 2, seed=31)
    train, test = split(data, 0.5, seed=3)
    strategies = [UncertaintyStrategy(), learned]
    _, traces = run_repeated(train, test, strategies, budget=60,
                             repetitions=args.runs, master_seed=17,
                             classifier_config=ForestConfig(n_trees=50,
                                                            features_per_split=1),
                             workers=args.workers)
    print(f"\nselected-probability histograms over {args.runs} runs:")
    for name, trace_list in traces.items():
        counts, edges = probability_histogram(trace_list, n_bins=21)
        histogram_to_csv(counts, edges, OUT / f"selected_p0_{name}.csv")
        bar_chart(OUT / f"selected_p0_{name}.svg", edges, counts,
                  title=f"{name}: predicted probability of chosen points",
                  x_label="p0 at selection time")
        values = np.concatenate([t.probabilities for t in trace_list])
        mode = edges[int(np.argmax(counts))] + (edges[1] - edges[0]) / 2
        print(f"  {name:16s} mode bin center {mode:.3f}, spread (std) {values.std():.3f}")
    print(f"artifacts in {OUT}")


if __name__ == "__main__":
    main()
