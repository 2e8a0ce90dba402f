"""Monte-Carlo training of learned query-selection strategies.

The simulation labels a random (or strategy-grown) subset of a
representative dataset, then measures, candidate by candidate, how much
the test loss drops when one more label is added.  Each measurement pairs
a learning-state vector with its observed loss reduction; a regression
forest fit on the collected pairs becomes the selection rule.

The two build methods differ in how labeled subsets are assembled:
``independent`` always partitions at random, while ``iterative`` grows
each subset with the strategy learned from all smaller subsets, so the
collected states reflect the selection bias a deployed strategy actually
encounters.  A build hands each worker a block of one size's
initializations; a strategy-grown block grows its labeled subsets in
lock-step, one grouped ``train_forests`` call per step, so the bytes do
not depend on how the initializations are blocked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .atomic import write_csv
from .data import Dataset, PoolState, gen_gaussian_clouds, init_warm_start
from .features import FEATURE_NAMES, candidate_states, classifier_state
from .forest import ForestConfig, ForestModel, regressor_config, train_forest, \
    train_forests
from .metrics import METRIC_IDS, loss_from_metric
from .parallel import parallel_map
from .schema import REQUIRED, read_fields
from .seeding import derive_seed, rng_for
from .strategies import BUILD_METHODS, LalStrategy, select_lal


@dataclass(frozen=True)
class MonteCarloConfig:
    """Simulation grid: labeled-set sizes, repeats, and model settings.

    ``size_min``/``size_max`` bound the labeled-subset sizes simulated,
    ``initializations`` counts independent subsets per size, and
    ``candidates`` counts label additions measured per subset.
    """

    size_min: int = 2
    size_max: int = 32
    initializations: int = 10
    candidates: int = 10
    classifier: ForestConfig = field(default_factory=ForestConfig)
    regressor: ForestConfig = field(default_factory=regressor_config)
    test_loss: str = "zero_one"
    seed: int = 0

    def __post_init__(self):
        checked = read_fields({key: getattr(self, key) for key in MONTE_CARLO_SCHEMA},
                              MONTE_CARLO_SCHEMA, "monte_carlo", "config")
        for key, value in checked.items():  # integers of any type are kept as plain ints
            object.__setattr__(self, key, value)
        if self.size_min > self.size_max:
            raise ValueError("need size_min <= size_max")
        if self.regressor.mode != "regression":
            raise ValueError("regressor config must be in regression mode")

    @property
    def n_sizes(self) -> int:
        return self.size_max - self.size_min + 1


# the grid's fields and bounds, stated once for MonteCarloConfig, the build config and metadata
MONTE_CARLO_SCHEMA = {"size_min": (int, REQUIRED, 2), "size_max": (int, REQUIRED, 2),
                      "initializations": (int, REQUIRED, 1), "candidates": (int, REQUIRED, 1),
                      "test_loss": (str, REQUIRED, METRIC_IDS), "seed": (int, REQUIRED)}


@dataclass
class RegressionSet:
    """Learning states with observed loss reductions.

    ``tags`` carries one ``(labeled_size, initialization, draw)`` triple
    per row; exported CSV uses the column names ``tau, q, m``.
    """

    states: np.ndarray
    deltas: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        self.tags = np.atleast_2d(np.asarray(self.tags, dtype=np.int64))
        if self.states.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"states must have {len(FEATURE_NAMES)} columns")
        if len(self.deltas) != len(self.states) or self.tags.shape != (len(self.states), 3):
            raise ValueError("row counts of states, deltas, and tags must match")
        if not (np.all(np.isfinite(self.states)) and np.all(np.isfinite(self.deltas))):
            raise ValueError("regression set contains non-finite entries")

    def __len__(self) -> int:
        return len(self.deltas)

    @staticmethod
    def concatenate(parts: list["RegressionSet"]) -> "RegressionSet":
        return RegressionSet(
            np.vstack([p.states for p in parts]),
            np.concatenate([p.deltas for p in parts]),
            np.vstack([p.tags for p in parts]),
        )

    def to_csv(self, path) -> None:
        header = [f"xi_{i}" for i in range(self.states.shape[1])] + ["delta", "tau", "q", "m"]
        rows = zip(self.states, self.deltas, self.tags)
        write_csv(path, header, ((*xi, delta, *tag) for xi, delta, tag in rows))


def random_splits(dataset: Dataset, labeled_size: int, seeds: list[int]) -> list[PoolState]:
    """One random two-class labeled set of ``labeled_size`` per seed."""
    return [init_warm_start(dataset, labeled_size, seed) for seed in seeds]


class StrategyGrownSplit:
    """Partition builder that grows labeled sets with a learned strategy.

    Each seed's set starts from ``start_size`` random samples and adds
    points chosen by the given regressor, retraining the classifier after
    each addition.  The sets of one call grow in lock-step: each step fits
    every set's classifier in one ``train_forests`` call, and a grouped
    forest is bit-identical to fitting its set alone, so a set's growth
    does not depend on the seeds it shares a call with.  Instances are
    picklable so blocks of cells can run in worker processes.
    """

    def __init__(self, regressor: ForestModel, classifier: ForestConfig, start_size: int):
        self.regressor = regressor
        self.classifier = classifier
        self.start_size = start_size

    def __call__(self, dataset: Dataset, labeled_size: int, seeds: list[int]) -> list[PoolState]:
        if labeled_size < self.start_size:
            raise ValueError("labeled_size is below the random start size")
        pools = random_splits(dataset, self.start_size,
                              [derive_seed(seed, "start") for seed in seeds])
        for step in range(labeled_size - self.start_size):
            models = train_forests([(dataset.features[pool.labeled], dataset.labels[pool.labeled],
                                     derive_seed(seed, "grow", step))
                                    for pool, seed in zip(pools, seeds)], self.classifier)
            for pool, model in zip(pools, models):
                pool.acquire(select_lal(self.regressor, model, pool, dataset))
        return pools


def data_monte_carlo(train: Dataset, test: Dataset, classifier_config: ForestConfig,
                     pool: PoolState, n_candidates: int, seed: int,
                     test_loss: str = "zero_one", init_tag: int = 0) -> RegressionSet:
    """Measure loss reductions for candidate additions to one labeled subset.

    ``pool`` partitions ``train`` into the labeled subset and its
    candidates; up to ``n_candidates`` unlabeled points are drawn without
    replacement.  The base classifier and one classifier per candidate,
    retrained with that point added, all train in one ``train_forests``
    pass (the draw does not depend on the base forest).  Each candidate
    records ``(state, base_loss - new_loss)``, its state taken from the
    base classifier.
    """
    if not train.has_both_classes():
        raise ValueError("training data must contain both classes")
    labeled_size = pool.n_labeled
    if not 2 <= labeled_size < len(train):
        raise ValueError(f"labeled_size must be in [2, {len(train) - 1}]")
    n_draws = min(n_candidates, pool.n_unlabeled)
    pos = rng_for(seed, "draw").choice(pool.n_unlabeled, size=n_draws, replace=False)
    drawn = pool.unlabeled[pos]
    sets = [(train.features[pool.labeled], train.labels[pool.labeled],
             derive_seed(seed, "base"))]
    for m, candidate in enumerate(drawn):
        extended = sorted(pool.labeled + [int(candidate)])
        sets.append((train.features[extended], train.labels[extended],
                     derive_seed(seed, "candidate", m)))
    base, *grown = train_forests(sets, classifier_config)

    base_loss = loss_from_metric(test_loss, base.predict_proba_batch(test.features),
                                 test.labels)
    phi, p0 = classifier_state(base, pool, train)
    states = candidate_states(phi, p0[pos])
    deltas = np.empty(n_draws)
    tags = np.empty((n_draws, 3), dtype=np.int64)
    for m, model in enumerate(grown):
        loss = loss_from_metric(test_loss, model.predict_proba_batch(test.features),
                                test.labels)
        deltas[m] = base_loss - loss
        tags[m] = (labeled_size, init_tag, m)
    return RegressionSet(states, deltas, tags)


def _run_block(args) -> list[RegressionSet]:
    """The cells of one size for the initializations ``tags``, their splits made together."""
    train, test, config, split_fn, labeled_size, tags = args
    seeds = [derive_seed(config.seed, "cell", labeled_size, q) for q in tags]
    pools = split_fn(train, labeled_size, [derive_seed(seed, "split") for seed in seeds])
    return [data_monte_carlo(train, test, config.classifier, pool, config.candidates, seed,
                             config.test_loss, q)
            for pool, seed, q in zip(pools, seeds, tags)]


def cold_start_data(seed: int, n_train: int = 1000, n_test: int = 1000,
                    separation: float = 2.0,
                    class0_fraction: float = 0.5) -> tuple[Dataset, Dataset]:
    """Synthetic 2-D Gaussian clouds that stand in for representative data.

    Returns ``(train, test)``: the simulation's labeled pool and the test
    set whose loss it measures, each seeded from ``seed``.
    """
    if n_train < 4:
        raise ValueError("representative train set too small: n_train must be at least 4, "
                         f"got {n_train}")
    if n_test < 2:
        raise ValueError("representative test set too small: n_test must be at least 2, "
                         f"got {n_test}")
    train = gen_gaussian_clouds(n_train, class0_fraction, separation, dim=2,
                                seed=derive_seed(seed, "representative_train"))
    test = gen_gaussian_clouds(n_test, class0_fraction, separation, dim=2,
                               seed=derive_seed(seed, "representative_test"))
    return train, test


def build_lal(config: MonteCarloConfig, representative: Dataset, test: Dataset,
              method: str, workers: int = 1) -> tuple[LalStrategy, RegressionSet]:
    """Learn a strategy and return it with the regression rows it was fit on.

    Every size simulates ``config.initializations`` labeled subsets.  Under
    ``"independent"`` they are random partitions.  Under ``"iterative"``
    only the first size partitions at random; every later size grows its
    subsets with a stage regressor fit on all rows collected so far, so
    with a single size both methods coincide.
    """
    if method not in BUILD_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if config.size_max >= len(representative):
        raise ValueError("size_max must be smaller than the representative set")
    leaf_size = config.regressor.min_leaf_size
    full = config.n_sizes * config.initializations * config.candidates
    parts: list[RegressionSet] = []
    split_fn = random_splits
    # one task per worker, each a block of initializations: a grown split
    # steps its block in lock-step, and the task pickles its inputs once
    blocks = np.array_split(np.arange(config.initializations),
                            min(max(workers, 1), config.initializations))
    for size in range(config.size_min, config.size_max + 1):
        tasks = [(representative, test, config, split_fn, size, block.tolist())
                 for block in blocks]
        for block_parts in parallel_map(_run_block, tasks, workers):
            parts.extend(block_parts)
        if method == "iterative" and size < config.size_max:
            rows = RegressionSet.concatenate(parts)
            # early stages hold few rows; keep the leaf size at the same
            # fraction of the data that the final regressor uses, or its
            # surface degenerates to a near-constant and growth stalls
            scaled = max(5, round(leaf_size * len(rows) / full))
            stage_config = replace(config.regressor, min_leaf_size=min(scaled, leaf_size))
            stage_regressor = train_forest(rows.states, rows.deltas, stage_config,
                                           derive_seed(config.seed, "stage_regressor", size))
            split_fn = StrategyGrownSplit(stage_regressor, config.classifier,
                                          config.size_min)
    collected = RegressionSet.concatenate(parts)
    regressor = train_forest(collected.states, collected.deltas, config.regressor,
                             derive_seed(config.seed, "regressor"))
    metadata = {key: getattr(config, key) for key in MONTE_CARLO_SCHEMA}
    metadata.update(rows=len(collected), representative=representative.name)
    return LalStrategy(regressor, FEATURE_NAMES, method, metadata), collected
