"""Datasets, synthetic generators, CSV ingestion, and pool bookkeeping.

A :class:`Dataset` is a feature matrix with binary labels.  A
:class:`PoolState` partitions one dataset into a labeled set and an
unlabeled pool and is the only mutable piece of state in an active
learning run.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .atomic import read_csv, write_csv
from .schema import check_integers
from .seeding import derive_seed, rng_for

WARM_START_ATTEMPTS = 16


@dataclass
class Dataset:
    """Feature matrix with binary labels.

    Parameters
    ----------
    features : np.ndarray (N, D)
        Real-valued feature matrix; every entry must be finite.
    labels : np.ndarray (N,)
        Class labels, each exactly 0 or 1.
    name : str
        Identifier used in output artifacts.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be one per feature row")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        bad = ~((labels == 0) | (labels == 1))  # before the cast, which would truncate 0.7 to 0
        if bad.any():
            raise ValueError(f"labels must be 0 or 1 (first bad row: {int(np.flatnonzero(bad)[0])})")
        self.labels = np.asarray(labels, dtype=np.int64)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices, name: str | None = None) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], name or self.name)

    def has_both_classes(self) -> bool:
        return bool((self.labels == 0).any() and (self.labels == 1).any())


@dataclass
class PoolState:
    """Partition of a dataset into labeled indices and an unlabeled pool.

    Both are kept sorted by dataset index, so training sets and sweeps over
    candidates (and therefore tie-breaking) are deterministic.  The order
    of acquisition is the caller's to record.
    """

    labeled: list[int]
    unlabeled: np.ndarray

    def __post_init__(self):
        self.labeled = sorted(int(i) for i in self.labeled)
        self.unlabeled = np.sort(np.asarray(self.unlabeled, dtype=np.int64))

    @property
    def n_labeled(self) -> int:
        return len(self.labeled)

    @property
    def n_unlabeled(self) -> int:
        return len(self.unlabeled)

    def acquire(self, index: int) -> None:
        """Move ``index`` from the unlabeled pool to the labeled set."""
        pos = np.searchsorted(self.unlabeled, index)
        if pos >= len(self.unlabeled) or self.unlabeled[pos] != index:
            raise ValueError(f"index {index} is not in the unlabeled pool")
        self.unlabeled = np.delete(self.unlabeled, pos)
        bisect.insort(self.labeled, int(index))

    def check_partition(self, n_total: int) -> None:
        """Raise unless labeled and unlabeled exactly partition ``range(n_total)``."""
        lab = set(self.labeled)
        unl = set(int(i) for i in self.unlabeled)
        if lab & unl:
            raise ValueError("labeled and unlabeled sets overlap")
        if lab | unl != set(range(n_total)):
            raise ValueError("labeled and unlabeled sets do not cover the dataset")


def gen_gaussian_clouds(n: int, class0_fraction: float, separation: float,
                        dim: int = 2, seed: int = 0) -> Dataset:
    """Two Gaussian clouds with identity covariance.

    Class 0 is centered at ``-separation/2`` along the first axis, class 1
    at ``+separation/2``; both use unit variance in every coordinate.
    ``round(n * class0_fraction)`` samples belong to class 0.
    """
    check_integers(n=n, dim=dim)
    if n < 2:
        raise ValueError("n must be at least 2")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if not 0.0 < class0_fraction < 1.0:
        raise ValueError("class0_fraction must lie strictly between 0 and 1")
    if not 0.0 < separation < math.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    n0 = int(round(n * class0_fraction))
    n1 = n - n0
    if n0 == 0 or n1 == 0:
        raise ValueError("class0_fraction leaves one class empty")
    rng = rng_for(seed)
    x = rng.standard_normal((n, dim))
    x[:n0, 0] -= separation / 2.0
    x[n0:, 0] += separation / 2.0
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Dataset(x, labels, name=f"gaussian_clouds_n{n}_s{separation:g}")


def checkerboard_label(k: int, x1, x2):
    """Parity of the k-by-k grid cell containing (x1, x2)."""
    return (np.floor(k * np.asarray(x1)).astype(np.int64)
            + np.floor(k * np.asarray(x2)).astype(np.int64)) % 2


def gen_checkerboard(k: int, n: int, seed: int = 0, label_noise: float = 0.0) -> Dataset:
    """Uniform points on the unit square labeled by k-by-k cell parity.

    ``label_noise`` flips each label independently with the given
    probability (default 0: the label function is exact).
    """
    check_integers(k=k, n=n)
    if k not in (2, 4):
        raise ValueError("grid side k must be 2 or 4")
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 <= label_noise < 1.0:
        raise ValueError("label_noise must lie in [0, 1)")
    rng = rng_for(seed)
    x = rng.random((n, 2))
    labels = checkerboard_label(k, x[:, 0], x[:, 1])
    if label_noise > 0.0:
        flip = rng.random(n) < label_noise
        labels = labels ^ flip.astype(np.int64)
    return Dataset(x, labels, name=f"checkerboard_{k}x{k}_n{n}")


def gen_banana(n: int, noise: float = 0.2, seed: int = 0) -> Dataset:
    """Two interleaved crescent-shaped classes.

    Class 0 lies on the upper unit half-circle centered at the origin,
    class 1 on a lower half-circle shifted to interleave with it; both are
    perturbed by isotropic Gaussian noise of scale ``noise``.  The shape is
    not linearly separable, which is the property that matters for the
    benchmarks built on it.
    """
    check_integers(n=n)
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be non-negative and finite, got {noise}")
    n0 = n - n // 2
    n1 = n // 2
    rng = rng_for(seed)
    t0 = rng.random(n0) * math.pi
    t1 = rng.random(n1) * math.pi
    x0 = np.column_stack([np.cos(t0), np.sin(t0)])
    x1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    x = np.vstack([x0, x1])
    if noise > 0.0:
        x = x + rng.standard_normal(x.shape) * noise
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Dataset(x, labels, name=f"banana_n{n}_noise{noise:g}")


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as ``f0,...,f{D-1},label`` CSV (exact float round-trip)."""
    header = [f"f{j}" for j in range(dataset.n_features)] + ["label"]
    write_csv(path, header,
              ((*row, label) for row, label in zip(dataset.features, dataset.labels)))


def load_csv(path, label_column: str = "label", name: str | None = None) -> Dataset:
    """Parse a headered CSV into a dataset.

    All columns except ``label_column`` are read as finite real-valued
    features in header order.  Errors name the file, and the offending
    line and column.
    """
    header, lines = read_csv(path)
    header = [c.strip() for c in header]
    twice = next((c for j, c in enumerate(header) if c in header[:j]), None)
    if twice is not None:
        raise ValueError(f"{path}: column {twice!r} appears twice in the header")
    if label_column not in header:
        raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
    label_pos = header.index(label_column)
    feature_pos = [j for j in range(len(header)) if j != label_pos]
    if not feature_pos:
        raise ValueError(f"{path}: no feature column besides the label column "
                         f"{label_column!r}")
    rows, labels = [], []
    for lineno, cells in lines:
        values = [_finite(cells[j]) for j in feature_pos]
        if None in values:
            bad = feature_pos[values.index(None)]
            raise ValueError(f"{path} line {lineno}, column {header[bad]!r}: "
                             f"cell {cells[bad]!r} is not a finite number")
        lab = cells[label_pos].strip()
        try:
            label = float(lab)
        except ValueError:
            raise ValueError(f"{path} line {lineno}: non-numeric label {lab!r}") from None
        if label not in (0.0, 1.0):
            raise ValueError(f"{path} line {lineno}: label {lab!r} is not 0 or 1")
        rows.append(values)
        labels.append(label)
    if len(rows) < 2:
        raise ValueError(f"{path}: fewer than 2 data rows")
    return Dataset(np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64),
                   name=name or str(path))


def _finite(cell: str) -> float | None:
    """``cell`` as a finite float, else ``None``."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def split(dataset: Dataset, test_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Shuffle and split into disjoint, exhaustive train/test parts, each with both classes.

    The parts are the two ends of one seeded permutation.  If that leaves
    a part with a single class, the first row of each class (in
    permutation order) moves to the front of the test part and the second
    to the front of the train part; every other row keeps its order.
    Besides a ``test_fraction`` outside (0, 1), it raises only when no
    two-class split exists: a class with fewer than 2 rows, or a part with
    fewer than 2.  Either error starts with the fraction and the dataset's
    name.
    """
    context = f"test_fraction {test_fraction} on dataset {dataset.name}"
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"{context}: test_fraction must lie strictly between 0 and 1")
    n = len(dataset)
    n_test = int(round(n * test_fraction))
    counts = np.bincount(dataset.labels, minlength=2)
    if counts.min() < 2 or not 2 <= n_test <= n - 2:
        raise ValueError(f"{context}: no split holds both classes in both parts: "
                         f"{counts[0]} rows of class 0 and {counts[1]} of class 1 into a "
                         f"test part of {n_test} rows and a train part of {n - n_test}")
    perm = rng_for(seed).permutation(n)
    labels = dataset.labels[perm]
    if np.ptp(labels[:n_test]) == 0 or np.ptp(labels[n_test:]) == 0:
        first, second = np.sort([np.flatnonzero(labels == c)[:2] for c in (0, 1)], axis=0).T
        rest = np.delete(perm, np.concatenate([first, second]))
        perm = np.concatenate([perm[first], rest[:n_test - 2], perm[second], rest[n_test - 2:]])
    return (dataset.subset(perm[n_test:], name=f"{dataset.name}/train"),
            dataset.subset(perm[:n_test], name=f"{dataset.name}/test"))


def _unlabeled(n: int, labeled) -> np.ndarray:
    """The sorted indices of ``range(n)`` not in ``labeled``."""
    keep = np.ones(n, dtype=bool)
    keep[labeled] = False
    return np.flatnonzero(keep)


def _two_class_start(train: Dataset, n0: int, rng: np.random.Generator) -> PoolState:
    """Label one random row of each class, then ``n0 - 2`` more random rows."""
    counts = np.bincount(train.labels, minlength=2)
    if counts.min() == 0:
        raise ValueError(f"a start needs both classes; the training set has {counts[0]} "
                         f"rows of class 0 and {counts[1]} of class 1")
    idx0 = int(rng.choice(np.flatnonzero(train.labels == 0)))
    idx1 = int(rng.choice(np.flatnonzero(train.labels == 1)))
    rest = rng.choice(_unlabeled(len(train), [idx0, idx1]), size=n0 - 2, replace=False)
    chosen = [idx0, idx1, *rest.tolist()]
    return PoolState(labeled=chosen, unlabeled=_unlabeled(len(train), chosen))


def init_cold_start(train: Dataset, seed: int = 0) -> PoolState:
    """Label one random sample from each class; raises only when ``train`` lacks a class."""
    return _two_class_start(train, 2, rng_for(seed))


def init_warm_start(train: Dataset, n0: int, seed: int = 0) -> PoolState:
    """Label ``n0`` random samples, at least one of each class.

    Draws ``n0`` rows uniformly up to ``WARM_START_ATTEMPTS`` times and
    keeps the first draw that holds both classes.  If none does, it labels
    one random row of each class and ``n0 - 2`` more random rows, so the
    start fails only when ``train`` lacks a class.
    """
    check_integers(n0=n0)
    n = len(train)
    if not 2 <= n0 < n:
        raise ValueError(f"n0 must satisfy 2 <= n0 < {n}, got {n0}")
    for attempt in range(WARM_START_ATTEMPTS):
        rng = rng_for(derive_seed(seed, "warm", attempt))
        chosen = np.sort(rng.choice(n, size=n0, replace=False))
        picked = train.labels[chosen]
        if (picked == 0).any() and (picked == 1).any():
            return PoolState(labeled=[int(i) for i in chosen],
                             unlabeled=_unlabeled(n, chosen))
    return _two_class_start(train, n0, rng_for(derive_seed(seed, "warm", WARM_START_ATTEMPTS)))


def merge(a: Dataset, b: Dataset) -> Dataset:
    """Concatenate two datasets over the same feature space, under ``a``'s name."""
    if a.n_features != b.n_features:
        raise ValueError("feature dimensions differ")
    return Dataset(np.vstack([a.features, b.features]),
                   np.concatenate([a.labels, b.labels]), name=a.name)
