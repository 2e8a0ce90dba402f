"""Experiment harness: AL runs, repeated benchmarks, and analysis artifacts.

One run simulates the annotation loop against a ground-truth oracle and
records the test metric after every acquisition.  Repeated runs re-split
the data per repetition with derived seeds and give every strategy the
same initial labeled set, so curves compare paired trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, init_cold_start, init_warm_start, merge, split
from .forest import ForestConfig, train_forest
from .logistic import sigmoid, train_logistic_batch
from .metrics import METRIC_IDS, evaluate_probability_metric
from .parallel import parallel_map
from .seeding import derive_seed, rng_for
from .strategies import LalStrategy, Strategy

MOTIVATION_CHUNK = 64
MOTIVATION_LEARN_RATE = 0.1   # logistic fits of the motivation experiment
MOTIVATION_ITERATIONS = 50


@dataclass
class SelectionTrace:
    """Chosen index and its predicted class-0 probability, per iteration."""

    iterations: np.ndarray
    indices: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if not (len(self.iterations) == len(self.indices) == len(self.probabilities)):
            raise ValueError("trace columns must align")
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError("an index was queried twice")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class LearningCurve:
    """Per-repetition metric traces over a shared budget axis.

    ``budgets[j]`` is the number of acquired labels; aggregates are always
    recomputed from the stored traces.
    """

    strategy_name: str
    dataset_name: str
    metric: str
    budgets: np.ndarray
    traces: np.ndarray
    master_seed: int

    def __post_init__(self):
        self.budgets = np.asarray(self.budgets, dtype=np.int64)
        self.traces = np.atleast_2d(np.asarray(self.traces, dtype=np.float64))
        if self.traces.shape[1] != len(self.budgets):
            raise ValueError("traces must have one column per budget")

    @property
    def repetitions(self) -> int:
        return self.traces.shape[0]

    def mean(self) -> np.ndarray:
        return self.traces.mean(axis=0)

    def std(self) -> np.ndarray:
        return self.traces.std(axis=0)

    def at_budget(self, budget: int) -> np.ndarray:
        pos = int(np.searchsorted(self.budgets, budget))
        if pos >= len(self.budgets) or self.budgets[pos] != budget:
            raise ValueError(f"budget {budget} not on the curve")
        return self.traces[:, pos]


def run_al(train: Dataset, test: Dataset, strategy: Strategy, budget: int,
           metric: str = "accuracy", seed: int = 0,
           classifier_config: ForestConfig | None = None,
           warm_start_size: int | None = None) -> tuple[np.ndarray, SelectionTrace]:
    """One active learning run; returns the metric trace and selections.

    The trace has ``budget + 1`` points: the metric is evaluated before
    the first query and after each acquisition.  Labels revealed to the
    learner always come from the dataset's ground truth.
    """
    if metric not in METRIC_IDS:
        raise ValueError(f"unknown metric {metric!r}")
    classifier_config = classifier_config or ForestConfig()
    if warm_start_size is None:
        pool = init_cold_start(train, derive_seed(seed, "init"))
    else:
        pool = init_warm_start(train, warm_start_size, derive_seed(seed, "init"))
    if budget > pool.n_unlabeled:
        raise ValueError(f"budget {budget} exceeds the unlabeled pool ({pool.n_unlabeled})")

    trace = np.empty(budget + 1)
    chosen, probabilities = [], []
    for t in range(budget + 1):
        model = train_forest(train.features[pool.labeled], train.labels[pool.labeled],
                             classifier_config, derive_seed(seed, "train", t))
        trace[t] = evaluate_probability_metric(
            metric, model.predict_proba_batch(test.features), test.labels)
        if t < budget:
            index = strategy.select(model, pool, train, rng_for(seed, "select", t))
            chosen.append(index)
            probabilities.append(model.predict_proba_batch(train.features[[index]])[0])
            pool.acquire(index)
    return trace, SelectionTrace(np.arange(budget), chosen, probabilities)


def _repetition(args):
    (pooled, test_fraction, strategies, budget, metric, rep_seed,
     classifier_config, warm_start_size) = args
    train_r, test_r = split(pooled, test_fraction, derive_seed(rep_seed, "split"))
    out = []
    for strategy in strategies:
        out.append(run_al(train_r, test_r, strategy, budget, metric, rep_seed,
                          classifier_config, warm_start_size))
    return out


def run_repeated(train: Dataset, test: Dataset, strategies: list[Strategy],
                 budget: int, metric: str = "accuracy", repetitions: int = 50,
                 master_seed: int = 0, classifier_config: ForestConfig | None = None,
                 warm_start_size: int | None = None, workers: int = 1,
                 ) -> tuple[dict[str, LearningCurve], dict[str, list[SelectionTrace]]]:
    """Benchmark strategies over repeated re-splits with paired starts.

    Every repetition redraws the train/test split (keeping the given
    proportions) and the initial labeled set from seeds derived
    ``(master_seed, repetition)``; within a repetition all strategies see
    the same split, the same initial labels, and the same per-iteration
    training seeds.
    """
    names = [s.name for s in strategies]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate strategy names: {names}")
    pooled = merge(train, test)
    test_fraction = len(test) / len(pooled)
    tasks = [(pooled, test_fraction, strategies, budget, metric,
              derive_seed(master_seed, "rep", r), classifier_config, warm_start_size)
             for r in range(repetitions)]
    results = parallel_map(_repetition, tasks, workers)

    curves: dict[str, LearningCurve] = {}
    traces: dict[str, list[SelectionTrace]] = {}
    for pos, name in enumerate(names):
        stack = np.vstack([results[r][pos][0] for r in range(repetitions)])
        curves[name] = LearningCurve(name, train.name, metric,
                                     np.arange(budget + 1), stack, master_seed)
        traces[name] = [results[r][pos][1] for r in range(repetitions)]
    return curves, traces


# ---- error reduction as a function of predicted probability -----------


@dataclass
class MotivationCurve:
    """Mean 0/1-loss reduction binned by the base classifier's p0."""

    bin_centers: np.ndarray
    mean_delta: np.ndarray
    counts: np.ndarray

    def argmax_center(self) -> float:
        """Center of the most error-reducing bin (empty bins ignored)."""
        masked = np.where(self.counts > 0, self.mean_delta, -np.inf)
        return float(self.bin_centers[int(np.argmax(masked))])


def _motivation_chunk(args):
    seed, rep_lo, rep_hi, fraction, n_pool, n_test, separation, n_bins = args
    from .data import gen_gaussian_clouds  # local import keeps workers cheap

    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    for r in range(rep_lo, rep_hi):
        data = gen_gaussian_clouds(n_pool, fraction, separation, 2,
                                   derive_seed(seed, "rep", r, "pool"))
        test = gen_gaussian_clouds(n_test, fraction, separation, 2,
                                   derive_seed(seed, "rep", r, "test"))
        pool = init_cold_start(data, derive_seed(seed, "rep", r, "init"))
        base = np.asarray(pool.labeled)
        candidates = pool.unlabeled
        n_cand = len(candidates)

        # model 0 trains on the two seeds alone; model i adds candidate i
        batch_x = np.zeros((n_cand + 1, 3, 2))
        batch_y = np.zeros((n_cand + 1, 3))
        mask = np.ones((n_cand + 1, 3))
        batch_x[:, :2] = data.features[base]
        batch_y[:, :2] = data.labels[base]
        batch_x[1:, 2] = data.features[candidates]
        batch_y[1:, 2] = data.labels[candidates]
        mask[0, 2] = 0.0
        weights = train_logistic_batch(batch_x, batch_y, mask, MOTIVATION_LEARN_RATE,
                                       MOTIVATION_ITERATIONS)

        cand_x1 = np.hstack([data.features[candidates], np.ones((n_cand, 1))])
        p0 = 1.0 - sigmoid(cand_x1 @ weights[0])

        test_x1 = np.hstack([test.features, np.ones((n_test, 1))])
        predicted = (test_x1 @ weights.T) > 0.0  # class 1 iff p1 > 0.5
        losses = np.mean(predicted != (test.labels[:, None] == 1), axis=0)
        delta = losses[0] - losses[1:]

        bins = np.clip((p0 * n_bins).astype(np.int64), 0, n_bins - 1)
        sums += np.bincount(bins, weights=delta, minlength=n_bins)
        counts += np.bincount(bins, minlength=n_bins)
    return sums, counts


def motivation_experiment(balanced: bool, repetitions: int = 10000,
                          n_bins: int = 20, seed: int = 0, n_pool: int = 100,
                          n_test: int = 5000, separation: float = 2.0,
                          workers: int = 1) -> MotivationCurve:
    """Loss reduction vs. predicted probability on two-cloud data.

    Per repetition: draw a fresh pool and test set (balanced classes, or
    class 0 twice the size of class 1), label one point per class, fit a
    logistic classifier, then measure for every pool point how much adding
    its label changes the 0/1 test loss.  Reductions are averaged in
    ``n_bins`` equal-width bins of the base classifier's p0.
    """
    if repetitions < 1 or n_bins < 2:
        raise ValueError("need at least 1 repetition and 2 bins")
    fraction = 0.5 if balanced else 2.0 / 3.0
    edges = list(range(0, repetitions, MOTIVATION_CHUNK)) + [repetitions]
    tasks = [(seed, lo, hi, fraction, n_pool, n_test, separation, n_bins)
             for lo, hi in zip(edges[:-1], edges[1:])]
    results = parallel_map(_motivation_chunk, tasks, workers)
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    for part_sums, part_counts in results:  # canonical order: chunk index
        sums += part_sums
        counts += part_counts
    with np.errstate(invalid="ignore"):
        mean_delta = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    centers = (np.arange(n_bins) + 0.5) / n_bins
    return MotivationCurve(centers, mean_delta, counts)


# ---- analysis ----------------------------------------------------------


def probability_histogram(traces: list[SelectionTrace], n_bins: int = 21,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Pooled histogram of chosen-point probabilities over [0, 1]."""
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    values = (np.concatenate([t.probabilities for t in traces])
              if traces else np.empty(0))
    counts, edges = np.histogram(values, bins=n_bins, range=(0.0, 1.0))
    return counts.astype(np.int64), edges


def regressor_importance_report(strategy: LalStrategy) -> list[tuple[str, float]]:
    """Named importance weights of the strategy's regression forest."""
    if not isinstance(strategy, LalStrategy):
        raise ValueError("importance report needs a learned strategy")
    weights = strategy.regressor.feature_importances()
    return [(name, float(w)) for name, w in zip(strategy.feature_schema, weights)]
