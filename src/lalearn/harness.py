"""Experiment harness: AL runs, repeated benchmarks, and analysis artifacts.

One run simulates the annotation loop against a ground-truth oracle and
records the test metric after every acquisition.  Repeated runs re-split
the data per repetition with derived seeds and give every strategy the
same initial labeled set, so curves compare paired trajectories.  Splits
and starts hold both classes whenever the data allow it, so a repetition
never fails on its draws.  The
strategies of a repetition step together in one ``run_al`` call: the
shared first classifier is fit once, and each later step fits one
classifier per strategy in a single grouped ``train_forests`` call, whose
forests are bit-identical to fitting each set alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, PoolState, init_cold_start, init_warm_start, merge, split
from .features import FEATURE_NAMES
from .forest import ForestConfig, train_forest, train_forests
from .logistic import sigmoid, train_logistic_batch
from .metrics import METRIC_IDS, evaluate_probability_metric
from .parallel import parallel_map
from .schema import check_integers
from .seeding import derive_seed, rng_for
from .strategies import LalStrategy, Strategy

MOTIVATION_CHUNK = 64
MOTIVATION_LEARN_RATE = 0.1   # logistic fits of the motivation experiment
MOTIVATION_ITERATIONS = 50
MOTIVATION_BATCH_MODELS = 8192  # logistic models per fit at most, whatever the pool size
MOTIVATION_SCORE_BLOCK = 25  # models scored per product: a (25, n_test) block stays in cache


@dataclass
class SelectionTrace:
    """Chosen index and its predicted class-0 probability, per iteration.

    Iterations run from 0 to n-1 in order, and every index is a distinct
    non-negative pool position, as ``run_al`` records them.
    """

    iterations: np.ndarray
    indices: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        self.iterations = np.asarray(self.iterations, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if not (len(self.iterations) == len(self.indices) == len(self.probabilities)):
            raise ValueError("trace columns must align")
        if not np.array_equal(self.iterations, np.arange(len(self.iterations))):
            raise ValueError(f"iterations must run 0 to {len(self.iterations) - 1} in order")
        if np.any(self.indices < 0):
            raise ValueError("an index is negative")
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


def run_al(train: Dataset, test: Dataset, strategies: list[Strategy], budget: int,
           metric: str = "accuracy", seed: int = 0,
           classifier_config: ForestConfig | None = None,
           warm_start_size: int | None = None) -> list[tuple[np.ndarray, SelectionTrace]]:
    """Paired active learning runs, one per strategy, stepped in lock-step.

    Returns one ``(metric trace, selections)`` pair per strategy.  Each
    trace has ``budget + 1`` points: the metric is evaluated before the
    first query and after each acquisition.  Labels revealed to the
    learner always come from the dataset's ground truth.

    Every run starts from the same labeled set and trains step ``t`` with
    the seed ``derive_seed(seed, "train", t)``, so the first classifier is
    fit once for all of them; each later step fits one classifier per run
    in a single ``train_forests`` call.  A grouped forest is bit-identical
    to fitting its set alone, so each run gives the bits it gives alone.
    """
    _check_run_integers(budget, warm_start_size)
    if metric not in METRIC_IDS:
        raise ValueError(f"unknown metric {metric!r}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    classifier_config = classifier_config or ForestConfig()
    start = (init_cold_start(train, derive_seed(seed, "init")) if warm_start_size is None
             else init_warm_start(train, warm_start_size, derive_seed(seed, "init")))
    if budget > start.n_unlabeled:
        raise ValueError(f"budget {budget} exceeds the unlabeled pool ({start.n_unlabeled})")

    def score(model) -> float:
        return evaluate_probability_metric(metric, model.predict_proba_batch(test.features),
                                           test.labels)

    pools = [PoolState(start.labeled, start.unlabeled) for _ in strategies]
    traces = np.empty((len(strategies), budget + 1))
    chosen = np.empty((len(strategies), budget), dtype=np.int64)
    probabilities = np.empty((len(strategies), budget))
    first = train_forest(train.features[start.labeled], train.labels[start.labeled],
                         classifier_config, derive_seed(seed, "train", 0))
    traces[:, 0] = score(first)
    models = [first] * len(strategies)
    for t in range(budget):
        for e, (strategy, pool, model) in enumerate(zip(strategies, pools, models)):
            index = strategy.select(model, pool, train, rng_for(seed, "select", t))
            chosen[e, t] = index
            probabilities[e, t] = model.predict_proba_batch(train.features[[index]])[0]
            pool.acquire(index)
        models = train_forests([(train.features[pool.labeled], train.labels[pool.labeled],
                                 derive_seed(seed, "train", t + 1)) for pool in pools],
                               classifier_config)
        traces[:, t + 1] = [score(model) for model in models]
    return [(traces[e], SelectionTrace(np.arange(budget), chosen[e], probabilities[e]))
            for e in range(len(strategies))]


def _check_run_integers(budget, warm_start_size) -> None:
    """``check_integers`` on a run's ``budget`` and its ``warm_start_size`` when set."""
    check_integers(budget=budget)
    if warm_start_size is not None:
        check_integers(warm_start_size=warm_start_size)


def _repetition(args):
    (pooled, test_fraction, strategies, budget, metric, rep_seed,
     classifier_config, warm_start_size) = args
    train_r, test_r = split(pooled, test_fraction, derive_seed(rep_seed, "split"))
    return run_al(train_r, test_r, strategies, budget, metric, rep_seed,
                  classifier_config, warm_start_size)


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
    training seeds.  A re-split has the part sizes of ``train`` and
    ``test``, so when both of them hold both classes every repetition's
    parts and start do too: no repetition fails on a draw.
    """
    check_integers(repetitions=repetitions)
    _check_run_integers(budget, warm_start_size)
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
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
    """Binned loss-reduction sums and counts of repetitions ``rep_lo .. rep_hi - 1``.

    Per repetition, model 0 trains on the two cold-start labels and model
    i adds candidate i.  The repetitions run in groups of at most
    ``MOTIVATION_BATCH_MODELS`` models (at least one repetition), in two
    passes per group:

    1. draw each repetition's pool and cold start, fill its rows of one
       batch, and fit the whole group in one ``train_logistic_batch`` call;
    2. draw each repetition's test set, count each model's test errors and
       add its bin sums, in repetition order.  The errors are counted from
       packed bits, ``MOTIVATION_SCORE_BLOCK`` models per product: each
       block's predictions are packed eight test points a byte, XORed with
       the packed labels, and the set bits counted.

    This gives the bits of one fit per repetition: the trainer computes
    each model's weights from its own row alone, every draw has its own
    derived seed (so drawing the test sets after the fit changes none of
    them), and the 0/1 losses are exact integer error counts over
    ``n_test`` at any block size.  Only one test set is alive at a time.
    """
    seed, rep_lo, rep_hi, fraction, n_pool, n_test, separation, n_bins = args
    from .data import gen_gaussian_clouds  # per-call lookup: perfbench/layers.py traces it

    n_cand = n_pool - 2
    n_models = n_cand + 1
    group = max(1, MOTIVATION_BATCH_MODELS // n_models)
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    for lo in range(rep_lo, rep_hi, group):
        reps = range(lo, min(lo + group, rep_hi))
        batch_x = np.zeros((len(reps), n_models, 3, 2))
        batch_y = np.zeros((len(reps), n_models, 3))
        mask = np.ones((len(reps), n_models, 3))
        mask[:, 0, 2] = 0.0
        for g, r in enumerate(reps):
            data = gen_gaussian_clouds(n_pool, fraction, separation, 2,
                                       derive_seed(seed, "rep", r, "pool"))
            pool = init_cold_start(data, derive_seed(seed, "rep", r, "init"))
            base = np.asarray(pool.labeled)
            candidates = pool.unlabeled
            batch_x[g, :, :2] = data.features[base]
            batch_y[g, :, :2] = data.labels[base]
            batch_x[g, 1:, 2] = data.features[candidates]
            batch_y[g, 1:, 2] = data.labels[candidates]
        weights = train_logistic_batch(
            batch_x.reshape(-1, 3, 2), batch_y.reshape(-1, 3), mask.reshape(-1, 3),
            MOTIVATION_LEARN_RATE, MOTIVATION_ITERATIONS).reshape(len(reps), n_models, 3)

        errors = np.empty(n_models, dtype=np.int64)
        for g, r in enumerate(reps):
            test = gen_gaussian_clouds(n_test, fraction, separation, 2,
                                       derive_seed(seed, "rep", r, "test"))
            cand_x1 = np.hstack([batch_x[g, 1:, 2], np.ones((n_cand, 1))])
            p0 = 1.0 - sigmoid(cand_x1 @ weights[g, 0])

            test_x1 = np.hstack([test.features, np.ones((n_test, 1))]).T
            truth = np.packbits(test.labels == 1)
            for start in range(0, n_models, MOTIVATION_SCORE_BLOCK):
                block = slice(start, start + MOTIVATION_SCORE_BLOCK)
                # predicts class 1 iff p1 > 0.5; a wrong prediction is a set bit
                wrong = np.packbits(weights[g, block] @ test_x1 > 0.0, axis=1)
                np.bitwise_xor(wrong, truth, out=wrong)
                errors[block] = np.bitwise_count(wrong).sum(axis=1)
            losses = errors / n_test
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
    check_integers(repetitions=repetitions, n_bins=n_bins, n_pool=n_pool, n_test=n_test)
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if n_bins < 2:
        raise ValueError(f"n_bins must be at least 2, got {n_bins}")
    if n_pool < 3:
        raise ValueError(f"n_pool must be at least 3 (two seed labels and a candidate), "
                         f"got {n_pool}")
    if n_test < 2:
        raise ValueError(f"n_test must be at least 2, got {n_test}")
    if not 0.0 < separation < np.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
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
    mean_delta = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    centers = (np.arange(n_bins) + 0.5) / n_bins
    return MotivationCurve(centers, mean_delta, counts)


# ---- analysis ----------------------------------------------------------


def probability_histogram(traces: list[SelectionTrace], n_bins: int = 21,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Pooled histogram of chosen-point probabilities over [0, 1]."""
    check_integers(n_bins=n_bins)
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
    return [(name, float(w)) for name, w in zip(FEATURE_NAMES, weights)]
