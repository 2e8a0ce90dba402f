"""Bagged CART decision trees, built in-repo.

One implementation serves as both the probabilistic classifier (leaf
values are class-0 frequencies, Gini splits) and the error-reduction
regressor (leaf values are target means, variance-reduction splits).  The
model exposes the internals the learning-state featurization needs:
out-of-bag accuracy, feature importances, per-tree predictions, and tree
depths.

Training is vectorized level-by-level across *all* trees of the forest at
once: every open node of every tree is split in the same pass using
segmented prefix sums, which keeps the many small forests an active
learning experiment needs cheap.  Per-tree seeds are derived from the
master seed and the tree index, so results are reproducible and
independent of any scheduling.  One split scan serves the trainer and
``best_split``, which runs one node and one feature through it:
``presort`` (SLIQ's presorted attribute lists; Mehta, Agrawal & Rissanen,
EDBT 1996), ``node_stats``, ``split_gains`` and ``choose_splits``.

``train_forests`` grows the trees of several training sets in the same
level-by-level pass; ``train_forest`` is that pass with one set.  Every
set keeps its own tree seeds, bootstrap, node numbering, depths and
importances, and a node's split depends only on its own rows.  The level-
wide prefix sums are the one thing sets share, and for classification
they are sums of 0/1 targets, exact integers in float64, so each forest
is bit-identical to training its set alone.  A regressor's prefix sums
are rounded floats whose values depend on every earlier row of the
level, so regression trains one set at a time.

A forest's node table is level-ordered, whether trained or loaded.
Nodes ``[0, T)`` are the roots of the ``T`` trees in tree order; each
later level holds the children of the previous level's splits, in split
order, left child then right child.  So a level's nodes have consecutive
ids, training builds each level's table as its own arrays, and the
forest's table is their concatenation.

Prediction reads one row per cell of the forest's threshold grid.  A
row's cell is its rank, on every feature some node splits on, among the
sorted distinct thresholds of that feature (``searchsorted`` with
``side="left"`` counts the thresholds strictly below the value).  Two rows
of one cell answer every ``x > threshold`` test alike, so they reach the
same leaf in every tree: the read-out takes one representative per cell
and each row takes its cell's leaf values.  A forest fitted on a few dozen
labels has few thresholds, so a thousand rows often fall into a few dozen
cells.  The rank vectors are read as one mixed-radix key, and the cells
are numbered in key order.  While the key's range is at most a small
multiple of the rows, a presence mask over that range numbers them
without a sort (the running count of the keys present); above it,
``np.unique`` sorts the keys.

When no tree has more than 64 leaves, the cells are read from a bitvector
table, as QuickScorer does (Lucchese et al., SIGIR 2015).  Each tree's
leaves are numbered left to right, one bit of a ``uint64`` each.  For every
feature, rank and tree, one word marks the leaves that a row of that rank
cannot reach: the left subtrees of the tree's nodes on that feature that
send the row right.  A row's exit leaf in a tree is the lowest leaf that
none of its words marks, so a read gathers one word per feature and costs
the same at any depth.  The table holds one row of ``n_trees`` words per
(feature, rank), so a read gathers whole contiguous rows, one (C, n_trees)
block per feature, and ORs them in place.  The exit leaf's number is a
count of trailing ones, and the counts, one byte each, are turned
tree-major as they index the leaf values, so the values come out as the
(n_trees, C) matrix itself.  The table is built once per forest from the
level-ordered node table, one vectorised step per level.  A forest with a
larger tree is walked instead: the walk moves every (tree, row) pair one
level per step.  A leaf steps to itself, so a finished pair can ride
along; finished pairs are dropped only once they are half of the pairs
still walked, not at every step.  Both paths return the same leaf values.

``tree_predictions_batch``, the one read-out, returns the cells' (n_trees,
C) leaf matrix, C-contiguous and at least two columns wide (a lone cell's
column is copied): numpy sums such a matrix down axis 0 one tree at a
time, but a single column pairwise, so a row's mean and variance over
trees keep their bits at any batch size.  So one read serves a learning
state: ``oob_accuracy`` votes from that read's training rows, and reads
nothing.  Rows must be finite: a NaN would rank above every threshold but
fail every ``>`` test.

Split semantics:

* candidate thresholds are midpoints of consecutive distinct sorted values;
* the best split maximizes the impurity decrease
  ``imp(node) - (n_l * imp(left) + n_r * imp(right)) / n``;
* ties break toward the smallest threshold, then the smallest feature
  index;
* a node becomes a leaf when it is pure, cannot satisfy
  ``min_leaf_size`` on both sides, sits at ``max_depth``, or when no
  split has a strictly positive decrease.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .schema import REQUIRED, REQUIRED_OR_NULL, brief, finite, read_fields
from .seeding import derive_seed

FOREST_FORMAT = 1

_ALL_LEAVES = np.uint64(2 ** 64 - 1)
# keys in [0, radix) are numbered by a presence mask while radix is at
# most _MASK_KEYS_PER_ROW * (rows + 64), else by np.unique's sort; timed
# at 1 to 3,000 keys, the mask was faster below that bound and slower
# well above it
_MASK_KEYS_PER_ROW = 8


def _dense(key: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """``(first, cell)``: the distinct values of ``key`` numbered densely.

    ``key`` holds values in ``[0, radix)``.  ``cell[i]`` is the number of
    distinct values below ``key[i]``, and ``first[c]`` is some row of cell
    ``c``, so ``len(first)`` is the number of cells.
    """
    if radix > _MASK_KEYS_PER_ROW * (len(key) + 64):
        _, first, cell = np.unique(key, return_index=True, return_inverse=True)
        return first, cell
    present = np.zeros(radix, dtype=bool)
    present[key] = True
    cell = (np.cumsum(present) - 1)[key]
    first = np.empty(np.count_nonzero(present), dtype=np.intp)
    first[cell] = np.arange(len(key))
    return first, cell


@dataclass(frozen=True)
class ForestConfig:
    """Training configuration.

    ``features_per_split=None`` resolves to ``ceil(sqrt(D))`` at fit time.
    ``max_depth=None`` means unbounded.
    """

    n_trees: int = 50
    max_depth: int | None = None
    min_leaf_size: int = 1
    features_per_split: int | None = None
    mode: str = "classification"

    def __post_init__(self):
        checked = read_fields({key: getattr(self, key) for key in CONFIG_SCHEMA},
                              CONFIG_SCHEMA, "forest", "config")
        for key, value in checked.items():  # integers of any type are kept as plain ints
            object.__setattr__(self, key, value)


# the one statement of a forest config's fields and bounds, as
# schema.read_fields takes them; ForestConfig checks itself against it
CONFIG_SCHEMA = {"n_trees": (int, REQUIRED, 1), "max_depth": (int, REQUIRED_OR_NULL, 0),
                 "min_leaf_size": (int, REQUIRED, 1),
                 "features_per_split": (int, REQUIRED_OR_NULL, 1),
                 "mode": (str, REQUIRED, ("classification", "regression"))}


def regressor_config(n_trees: int = 100, min_leaf_size: int = 80, **kwargs) -> ForestConfig:
    """Default configuration for the error-reduction regressor.

    The wide leaves matter: per-episode loss reductions are individually
    noisy, and a regressor that chases them point by point ranks
    candidates by noise instead of signal.
    """
    return ForestConfig(n_trees=n_trees, min_leaf_size=min_leaf_size,
                        mode="regression", **kwargs)


class ForestModel:
    """A trained forest: its node table, config and seed.

    Nodes of all trees live in shared flat arrays; node ``i < n_trees`` is
    the root of tree ``i``.  ``feature[j] == -1`` marks a leaf.  Sibling nodes
    occupy adjacent slots: the right child of node ``j`` is ``left[j] + 1``.
    The bootstraps are not stored: out-of-bag accuracy regenerates them
    from the seed, so a trained and a reloaded forest hold the same state.
    Models are immutable after training and safe to share between
    processes.  The read-out state is computed on the first prediction and
    kept, but not pickled: the per-feature thresholds that prediction ranks
    rows by, and the bitvector table when no tree has more than 64 leaves,
    else the walk's node arrays (see the module docstring).
    """

    def __init__(self, *, config, seed, n_features, feature, threshold, left,
                 value, count, tree_depths, importances_raw):
        self.mode = config.mode
        self.config = config
        self.seed = seed
        self.n_features = n_features
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        self.count = np.asarray(count, dtype=np.int64)
        self.tree_depths = np.asarray(tree_depths, dtype=np.int64)
        self.importances_raw = np.asarray(importances_raw, dtype=np.float64)

    @property
    def n_trees(self) -> int:
        return self.config.n_trees

    # ---- prediction -------------------------------------------------

    def __getstate__(self) -> dict:
        # the read-out caches, every cached_property, are rebuilt on the
        # first read after unpickling
        return {k: v for k, v in self.__dict__.items()
                if not isinstance(getattr(type(self), k, None), cached_property)}

    @cached_property
    def _cuts(self) -> list[tuple[int, np.ndarray]]:
        """``(feature, sorted distinct thresholds)`` of every feature that splits."""
        return [(f, np.unique(self.threshold[self.feature == f]))
                for f in np.unique(self.feature[self.feature >= 0]).tolist()]

    def tree_predictions_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Leaf values of the threshold cells that the rows of ``X`` fall in.

        Returns ``(leaf, cell)``: row ``i`` reaches ``leaf[:, cell[i]]``, so
        ``np.take(leaf, cell, axis=1)`` is the per-row (n_trees, N) matrix.
        ``leaf`` has one C-contiguous column per cell, read out for one of the
        rows of the cell, and two of a lone cell, so reductions down axis 0
        add the trees in order (see the module docstring).  Raises
        ``ValueError`` naming non-finite rows.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        if not np.isfinite(X).all():
            bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
            raise ValueError(f"{len(bad)} prediction rows hold non-finite values, "
                             f"first rows {bad[:5].tolist()}")
        ranks = np.empty((len(X), len(self._cuts)), dtype=np.int64)
        # a mixed-radix key over the features' ranks, ordered as the rank
        # tuples are; it is densified (to at most len(X) values) only when
        # the next digit could push it past int64
        cell = np.zeros(len(X), dtype=np.int64)
        radix = 1
        for i, (f, cuts) in enumerate(self._cuts):
            if radix * (len(cuts) + 1) > 2 ** 62:
                first, cell = _dense(cell, radix)
                radix = len(first)
            ranks[:, i] = np.searchsorted(cuts, X[:, f], side="left")
            cell = cell * (len(cuts) + 1) + ranks[:, i]
            radix *= len(cuts) + 1
        first, cell = _dense(cell, radix)
        leaf = self._cell_leaves(X[first], ranks[first])
        if len(first) == 1:
            leaf = np.take(leaf, [0, 0], axis=1)
        return leaf, cell

    def _cell_leaves(self, X: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Leaf value reached in every tree by every row of ``X``: (n_trees, N).

        ``ranks[:, i]`` are the rows' ranks among ``_cuts[i]``'s thresholds.
        The bitvector table reads them when it exists, else ``_walk`` walks
        ``X``.
        """
        if self._bitvectors is None:
            return self._walk(X)
        gone, offsets, slots = self._bitvectors
        # the leaves each row cannot reach in each tree: the OR of one
        # gathered (N, n_trees) block of table rows per feature (of none in
        # a forest of single leaves).  The exit leaf is the lowest leaf
        # left, so its number is the count of trailing ones, and
        # x ^ (x + 1) sets one bit more than that; the counts are turned
        # tree-major as they are added to each tree's slot base
        words = (ranks + offsets).T
        lost = gone[words[0]] if len(words) else np.zeros((len(ranks), self.n_trees), np.uint64)
        for column in words[1:]:
            lost |= gone[column]
        lost ^= lost + np.uint64(1)
        slot = np.empty((self.n_trees, len(ranks)), dtype=np.intp)
        np.add(64 * np.arange(self.n_trees)[:, None], np.bitwise_count(lost).T, out=slot)
        return slots[slot]

    @cached_property
    def _bitvectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(gone, offsets, slots)`` of the bitvector read-out, or ``None``.

        ``None`` when a tree has more than 64 leaves.  Each tree's leaves
        are numbered left to right, one bit each.  Row ``offsets[i] + r`` of
        the (R, n_trees) uint64 ``gone`` marks, per tree, the leaves that a
        row of rank ``r`` among ``_cuts[i]``'s thresholds cannot reach: the
        left subtrees of the tree's nodes on that feature whose thresholds
        rank below ``r``, the nodes that send such a row right.
        ``slots[64 * t + k + 1]`` is the value of leaf ``k`` of tree ``t``
        (see ``_cell_leaves``).
        """
        T, n = self.n_trees, len(self.feature)
        split = self.feature >= 0
        s = np.flatnonzero(split)
        # split j's children are nodes T + 2j and T + 2j + 1, so level k + 1
        # holds the children of the splits s[ends[k - 1]:ends[k]]
        ids, ends = s.tolist(), [0]
        while (end := bisect_left(ids, T + 2 * ends[-1])) > ends[-1]:
            ends.append(end)
        levels = list(zip(ends, ends[1:]))
        # leaves per subtree, bottom up
        size = np.ones(n, dtype=np.int64)
        for lo, hi in reversed(levels):
            children = size[T + 2 * lo:T + 2 * hi]
            size[s[lo:hi]] = children[0::2] + children[1::2]
        if size[:T].max() > 64:
            return None
        # 64 * tree + the number of its first leaf, top down
        first = np.zeros(n, dtype=np.int64)
        first[:T] = np.arange(0, 64 * T, 64)
        for lo, hi in levels:
            parent = first[s[lo:hi]]
            first[T + 2 * lo:T + 2 * hi:2] = parent
            first[T + 2 * lo + 1:T + 2 * hi:2] = parent + size[T + 2 * lo:T + 2 * hi:2]
        leaf = first[~split]
        slots = np.zeros(64 * T + 1)
        slots[leaf + 1] = self.value[~split]
        # a split's left subtree holds the leaves [first, first + size)
        first = first[s]
        mask = ((_ALL_LEAVES >> (np.uint64(64) - size[T::2].astype(np.uint64)))
                << (first & 63).astype(np.uint64))
        # a node of rank j among feature slot i's thresholds sends rows of
        # rank j + 1 and above right: its mask joins row offsets[i] + j + 1
        widths = [len(cuts) + 1 for _, cuts in self._cuts]
        offsets = np.cumsum([0] + widths[:-1], dtype=np.int64)
        feature, threshold = self.feature[s], self.threshold[s]
        key = np.empty(len(s), dtype=np.int64)
        for i, (f, cuts) in enumerate(self._cuts):
            on = feature == f
            key[on] = offsets[i] + 1 + np.searchsorted(cuts, threshold[on])
        key = key * T + (first >> 6)
        gone = np.zeros((sum(widths), T), dtype=np.uint64)
        flat = gone.reshape(-1)
        flat[key] = mask
        # a tree that splits one feature twice at one threshold writes one
        # word twice: OR in the masks that the last write overwrote
        lost = np.flatnonzero(flat[key] != mask)
        np.bitwise_or.at(flat, key[lost], mask[lost])
        for lo, width in zip(offsets.tolist(), widths):
            np.bitwise_or.accumulate(gone[lo:lo + width], axis=0, out=gone[lo:lo + width])
        return gone, offsets, slots

    @cached_property
    def _walk_nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(feature, threshold, left)`` for the walk, where a leaf steps to itself.

        A leaf tests feature 0 against ``+inf``, which no finite value
        exceeds, and its left child is its own id.
        """
        leaf = self.feature < 0
        return (np.where(leaf, 0, self.feature),
                np.where(leaf, np.inf, self.threshold),
                np.where(leaf, np.arange(len(leaf)), self.left))

    def _walk(self, X: np.ndarray) -> np.ndarray:
        """Leaf value reached in every tree for every row: shape (n_trees, N)."""
        n, d = X.shape
        feature, threshold, left = self._walk_nodes
        # walk all (tree, row) pairs one level per step; x > threshold steps
        # to the right sibling, which sits one slot after the left child.
        # A pair in a leaf stays there (a split's children come after it,
        # so only a leaf steps to itself), and the finished pairs are
        # dropped only once they are half of those still walked
        flat = np.ascontiguousarray(X).reshape(-1)
        node = np.repeat(np.arange(self.n_trees), n)
        reached = np.empty_like(node)
        alive = np.arange(self.n_trees * n)
        rows = np.tile(np.arange(n) * d, self.n_trees)
        while len(alive):
            nxt = left[node] + (flat[rows + feature[node]] > threshold[node])
            done = nxt == node
            if 2 * np.count_nonzero(done) >= len(alive):
                # integer gathers: numpy's boolean-mask indexing is several
                # times slower on these mixed masks
                fin, keep = np.flatnonzero(done), np.flatnonzero(~done)
                reached[alive[fin]] = nxt[fin]
                alive, node, rows = alive[keep], nxt[keep], rows[keep]
            else:
                node = nxt
        return self.value[reached].reshape(self.n_trees, n)

    def predict_proba_batch(self, X) -> np.ndarray:
        """Class-0 probability (mean of leaf class-0 frequencies) per row."""
        if self.mode != "classification":
            raise ValueError("predict_proba requires a classification forest")
        leaf, cell = self.tree_predictions_batch(X)
        return leaf.mean(axis=0)[cell]

    def predict_regression_batch(self, X) -> np.ndarray:
        """Mean of leaf target means per row."""
        if self.mode != "regression":
            raise ValueError("predict_regression requires a regression forest")
        leaf, cell = self.tree_predictions_batch(X)
        return leaf.mean(axis=0)[cell]

    # ---- introspection ----------------------------------------------

    def oob_accuracy(self, leaf, cell, targets) -> float:
        """Out-of-bag accuracy on the training set, from its read-out.

        ``(leaf, cell)`` is ``tree_predictions_batch`` of the training rows,
        or of a larger set with ``cell`` cut to them, so one read serves a
        whole learning state.  Each sample is voted on by the trees whose
        bootstrap excludes it (one hard vote per tree, ties toward class 0).
        The bootstraps are regenerated from the seed, as training drew them.
        Samples in every bootstrap are skipped; when no sample has an
        excluding tree the accuracy is 1.0, so the learning-state feature
        stays finite on tiny labeled sets.  Raises ``ValueError`` unless
        ``cell`` has as many rows as every root counted, and ``targets`` too.
        """
        if self.mode != "classification":
            raise ValueError("oob_accuracy requires a classification forest")
        targets = np.asarray(targets)
        n = len(cell)
        if np.any(self.count[:self.n_trees] != n) or n != len(targets):
            raise ValueError("oob_accuracy expects the exact training set")
        excluding = np.ones((self.n_trees, n), dtype=bool)
        excluding[np.arange(self.n_trees)[:, None],
                  bootstrap_matrix(tree_seeds(self.seed, self.n_trees), n)] = False
        n_votes = excluding.sum(axis=0)
        votes_class1 = ((np.take(leaf, cell, axis=1) < 0.5) & excluding).sum(axis=0)
        covered = n_votes > 0
        if not covered.any():
            return 1.0
        predicted = (votes_class1 * 2 > n_votes).astype(np.int64)
        return float(np.mean(predicted[covered] == targets[covered]))

    def feature_importances(self) -> np.ndarray:
        """Mean impurity decrease per feature, normalized to sum to 1.

        All-zero when the forest contains no split at all.
        """
        total = self.importances_raw.sum()
        if total <= 0.0:
            return np.zeros(self.n_features)
        return self.importances_raw / total

    def avg_tree_depth(self) -> float:
        """Mean over trees of the maximum leaf depth."""
        return float(self.tree_depths.mean())


# ---- split scan --------------------------------------------------------


def _run_sums(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums over the runs ``[lo, hi]`` of the values whose prefix sums are ``c``."""
    return c[hi] - np.where(lo > 0, c[np.maximum(lo - 1, 0)], 0.0)


def presort(stacked: np.ndarray, src: np.ndarray):
    """Presorted lists ``(listed, pos, rbits, pbits)`` of the rows ``stacked[src]``.

    Each feature's ``nb`` rows are sorted once by the keys ``rank << rbits
    | row`` (below ``2 * stacked.size * nb``), where one dense rank over
    ``stacked`` orders and ties rows as their values do.  The i-th row of
    feature f is ``listed[f * nb + i]``, and ``pos[f * nb + r] = f * nb +
    i`` is where row r sits.  Rows are below ``2**rbits`` and places below
    ``2**pbits``, so keys that pack a group above either unpack by shifts.
    """
    nb, d = len(src), stacked.shape[1]
    _, rank = np.unique(stacked, return_inverse=True)
    rank = rank.reshape(stacked.shape)
    rbits, pbits = (nb - 1).bit_length(), (d * nb - 1).bit_length()
    listed, pos = np.empty((2, d * nb), dtype=np.int64)
    # one feature at a time keeps the temporaries at nb values
    for f in range(d):
        lo = f * nb
        listed[lo:lo + nb] = np.sort(rank[src, f] << rbits | np.arange(nb))
        pos[lo + (listed[lo:lo + nb] & ((1 << rbits) - 1))] = np.arange(lo, lo + nb)
    return listed, pos, rbits, pbits


def node_stats(y_g: np.ndarray, sizes: np.ndarray, classification: bool):
    """``(value, impurity, pure, tot1, tot2)`` of nodes with ``sizes`` targets each.

    ``y_g`` holds the nodes' targets grouped by node.  The target sums
    ``tot1`` and sums of squares ``tot2`` (regression only, else ``None``)
    are read off the prefix sums of all of ``y_g``.
    """
    starts = np.cumsum(sizes) - sizes
    ends = starts + sizes - 1
    szf = sizes.astype(np.float64)
    tot1 = _run_sums(np.cumsum(y_g), starts, ends)
    if classification:
        impurity = 1.0 - ((szf - tot1) ** 2 + tot1 ** 2) / (szf * szf)
        return (szf - tot1) / szf, impurity, (tot1 == 0.0) | (tot1 == szf), tot1, None
    tot2 = _run_sums(np.cumsum(y_g * y_g), starts, ends)
    value = tot1 / szf
    impurity = tot2 / szf - value * value
    mn = np.minimum.reduceat(y_g, starts)
    pure = mn == np.maximum.reduceat(y_g, starts)
    # a pure node's value is its exact constant, without float dust
    return np.where(pure, mn, value), impurity, pure, tot1, tot2


def split_gains(lists, gy, sizes, rows, subs, tot1, tot2, parent, min_leaf: int):
    """Every split point of the nodes over their feature subsets, with its gain.

    ``lists`` come from ``presort``, ``gy[r]`` is bootstrapped row r's
    target, ``rows`` are the nodes' rows grouped by node, ``subs`` their
    feature subsets and the rest their ``node_stats``.  Returns ``(node,
    slot, lrow, rrow, gain, child)`` per point, ordered by node, slot (an
    index into ``subs.ravel()``) and threshold, which lies between the
    values of rows lrow and rrow: ``gain = parent - child / n`` with
    ``child = n_l * imp(left) + n_r * imp(right)``.
    """
    listed, pos, rbits, pbits = lists
    nb, k = len(gy), subs.shape[1]
    enode = np.repeat(np.arange(len(sizes)), sizes)
    # segment e * k + j holds node e's rows in the order of feature
    # subs[e, j]'s sorted list, i.e. by (rank, row).  A node's features
    # ascend with j, and so do their places, so the keys (node, place)
    # are distinct and one plain sort lays out every segment.  Every node
    # holds at least two rows (eligible nodes do, and so does best_split's
    # one node), so the keys stay below d * nb**2: about 1.1e13 for 100
    # trees on 12,400 rows of 7 features, far from 2**63
    skey = np.empty((len(rows), k), dtype=np.int64)
    nkey = enode << pbits
    first_place = subs.T * nb
    for j in range(k):
        skey[:, j] = nkey | pos[first_place[j][enode] + rows]
    del enode, nkey
    skey = skey.reshape(-1)
    skey.sort()
    srank = listed[skey & ((1 << pbits) - 1)]
    del skey
    srow = srank & ((1 << rbits) - 1)
    srank >>= rbits
    # split points: the rows whose successor in the segment has a larger
    # rank and that leave min_leaf rows on both sides (a segment's last
    # row has none on its right, so no point spans two segments)
    b = np.flatnonzero(srank[1:] > srank[:-1])
    del srank
    seg_sizes = np.repeat(sizes, k)
    seg_starts = np.cumsum(seg_sizes) - seg_sizes
    slot = np.searchsorted(seg_starts, b, side="right") - 1
    nl = b - seg_starts[slot] + 1
    nr = seg_sizes[slot] - nl
    keep = (nl >= min_leaf) & (nr >= min_leaf)
    b, slot = b[keep], slot[keep]
    node = slot // k
    nl, nr = nl[keep].astype(np.float64), nr[keep].astype(np.float64)
    lrow, rrow = srow[b], srow[b + 1]
    st = gy[srow]
    del srow, keep
    # the level-wide prefix sums, read at the points and just before
    # each point's segment
    boff = seg_starts[slot]
    l1 = _run_sums(np.cumsum(st), boff, b)
    l2 = None if tot2 is None else _run_sums(np.cumsum(np.square(st, out=st)), boff, b)
    del st, boff, b
    if tot2 is None:
        tl0 = nl - l1
        tr1 = tot1[node] - l1
        tr0 = nr - tr1
        gl = 1.0 - (tl0 * tl0 + l1 * l1) / (nl * nl)
        gr = 1.0 - (tr0 * tr0 + tr1 * tr1) / (nr * nr)
    else:
        mean_l = l1 / nl
        gl = l2 / nl - mean_l * mean_l
        mean_r = (tot1[node] - l1) / nr
        del l1, mean_l
        gr = (tot2[node] - l2) / nr - mean_r * mean_r
    child = nl * gl + nr * gr
    del nl, nr, gl, gr
    return node, slot, lrow, rrow, parent[node] - child / sizes[node], child


def choose_splits(points, subs, sizes, parent, stacked, src):
    """The split of each node whose best ``split_gains`` point has a positive gain.

    Ties break toward the smallest threshold, then the smallest feature;
    ``stacked[src[r]]`` holds bootstrapped row r's values.  Returns ``(node,
    feature, threshold, decrease)``, with ``decrease = n * parent - child``.
    """
    node, slot, lrow, rrow, gain, child = points
    # each node's best gain over its points (-inf without any)
    node_max = np.full(len(sizes), -np.inf)
    np.maximum.at(node_max, node, gain)
    bmax = node_max[node]
    ci = np.flatnonzero((bmax > 0.0) & (gain == bmax))
    cn = node[ci]
    cft = subs.reshape(-1)[slot[ci]]
    cthr = (stacked[src[lrow[ci]], cft] + stacked[src[rrow[ci]], cft]) * 0.5
    psel = np.lexsort((cft, cthr, cn))
    first = np.ones(len(psel), dtype=bool)
    first[1:] = cn[psel][1:] != cn[psel][:-1]
    pick = psel[first]
    chosen = cn[pick]
    decrease = sizes[chosen] * parent[chosen] - child[ci[pick]]
    return chosen, cft[pick], cthr[pick], decrease


def best_split(feature_column, targets, criterion: str = "gini",
               min_leaf_size: int = 1):
    """Best threshold for one feature, or ``None`` when no split exists.

    One node, one feature and no bootstrap through the trainer's scan.
    Returns ``(threshold, impurity_decrease)`` of the split point with the
    largest decrease, even when it is not positive; ties break toward the
    smallest threshold.  A constant column (or one whose every boundary
    violates ``min_leaf_size``) has no split point and yields ``None``.
    """
    x = np.asarray(feature_column, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("feature_column and targets must be equally long vectors")
    n = len(x)
    if n < 2:
        raise ValueError("best_split needs at least 2 samples")
    if criterion not in ("gini", "variance"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "gini" and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("gini criterion expects 0/1 targets")
    rows, sizes = np.arange(n), np.array([n])
    _, parent, _, tot1, tot2 = node_stats(y, sizes, criterion == "gini")
    _, _, lrow, rrow, gain, _ = split_gains(presort(x[:, None], rows), y, sizes, rows,
                                            np.zeros((1, 1), dtype=np.int64), tot1, tot2,
                                            parent, min_leaf_size)
    if not len(gain):
        return None
    best = int(np.argmax(gain))
    return float((x[lrow[best]] + x[rrow[best]]) * 0.5), float(gain[best])


# ---- training --------------------------------------------------------


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_WEYL = np.uint64(0xB5297A4D3F84D5B9)


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bootstrap_matrix(tree_seeds: np.ndarray, n: int) -> np.ndarray:
    """Per-tree bootstrap index multisets, shape (len(tree_seeds), n).

    Draw ``j`` of tree ``t`` is a counted splitmix64 hash of the tree's
    derived seed, reduced mod ``n``: reproducible for any scheduling and
    cheap to generate in bulk.
    """
    counters = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    z = _finalize(tree_seeds[:, None] + counters[None, :])
    return (z % np.uint64(n)).astype(np.int64)


def feature_subsets(tree_seeds: np.ndarray, node_ids: np.ndarray, d: int,
                    k: int) -> np.ndarray:
    """Size-k feature subsets for nodes identified by (tree seed, node id).

    Each of the ``d`` features gets a counted hash of the node's identity;
    the ``k`` smallest win.  Stateless, so the draw depends only on the
    tree seed and the node's within-tree creation index.
    """
    z = (np.asarray(tree_seeds, dtype=np.uint64)[:, None]
         + np.asarray(node_ids, dtype=np.uint64)[:, None] * _WEYL
         + np.arange(1, d + 1, dtype=np.uint64)[None, :] * _GOLDEN)
    u = _finalize(z)
    picked = np.argpartition(u, k - 1, axis=1)[:, :k]
    return np.sort(picked, axis=1)


def tree_seeds(seed: int, n_trees: int) -> np.ndarray:
    """``derive_seed(seed, "tree", t)`` for every ``t < n_trees``, as uint64.

    The last step of ``derive_seed`` is one splitmix64 round on
    ``prefix ^ t``, so hashing the prefix once and finishing the rounds in
    bulk gives the same seeds without a Python call per tree.
    """
    prefix = np.uint64(derive_seed(seed, "tree"))
    return _finalize((prefix ^ np.arange(n_trees, dtype=np.uint64)) + _GOLDEN)


def train_forest(features, targets, config: ForestConfig | None = None,
                 seed: int = 0) -> ForestModel:
    """Train a bagged forest on ``features``/``targets``.

    Every tree is fit on an N-sample bootstrap generated by a counted hash
    of ``(seed, tree_index)``; per-split feature subsets come from a
    generator seeded the same way.  Classification targets must be 0/1.
    """
    return train_forests([(features, targets, seed)], config)[0]


def _training_set(features, targets, classification: bool):
    X = np.ascontiguousarray(np.atleast_2d(features), dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    if len(y) != X.shape[0]:
        raise ValueError("targets must match features row count")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("training data contains non-finite values")
    if classification and not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("classification targets must be 0 or 1")
    return X, y


def train_forests(sets, config: ForestConfig | None = None) -> list[ForestModel]:
    """Train one forest per ``(features, targets, seed)`` set in one grouped pass.

    Each returned forest is bit-identical to ``train_forest`` on its set
    alone (see the module docstring).  Regression takes a single set: its
    prefix sums run across the whole level, so sharing a level with
    another set would change the regressor's floats.
    """
    config = config or ForestConfig()
    classification = config.mode == "classification"
    if not sets:
        raise ValueError("no training sets")
    if not classification and len(sets) > 1:
        raise ValueError("regression forests train one set per call")
    data = [_training_set(features, targets, classification) for features, targets, _ in sets]
    d = data[0][0].shape[1]
    if any(X.shape[1] != d for X, _ in data):
        raise ValueError("training sets must have the same number of features")

    k = config.features_per_split or math.ceil(math.sqrt(d))
    k = min(k, d)
    config = replace(config, features_per_split=k)
    T = config.n_trees
    G = len(sets)
    min_leaf = config.min_leaf_size
    max_depth = math.inf if config.max_depth is None else config.max_depth

    # trees of all sets side by side: tree g * T + t is tree t of set g,
    # and each set's bootstrap draws from its own rows
    seeds = np.concatenate([tree_seeds(seed, T) for _, _, seed in sets])
    ns = [len(y) for _, y in data]
    bootstraps = [bootstrap_matrix(seeds[g * T:(g + 1) * T], n) for g, n in enumerate(ns)]
    # bootstrapped row r is row src[r] of the stacked sets
    stacked = np.concatenate([X for X, _ in data])
    src = np.concatenate([b.reshape(-1) + lo
                          for b, lo in zip(bootstraps, np.cumsum([0] + ns[:-1]))])
    gy = np.concatenate([y for _, y in data])[src]
    lists = presort(stacked, src)
    rbits = lists[2]   # rows r < 2**rbits

    levels = []   # per level: open trees, feature, threshold, value, count
    tree_depths = np.zeros(G * T, dtype=np.int64)
    imp_raw = np.zeros((G, d))

    open_tree = np.arange(G * T)
    open_pt = np.zeros(G * T, dtype=np.int64)   # within-tree creation index
    tree_next_pt = np.ones(G * T, dtype=np.int64)
    # the bootstrapped rows still in open nodes, and their node ordinals
    rows = np.arange(len(src))
    o = np.repeat(open_tree, np.repeat(ns, T))
    depth = 0

    while len(open_tree):
        P = len(open_tree)
        # by node, then row; the keys stay below 2 * len(src)**2
        rows_g = np.sort(o << rbits | rows) & ((1 << rbits) - 1)
        sizes = np.bincount(o, minlength=P)
        value, parent_imp, pure, tot1, tot2 = node_stats(gy[rows_g], sizes, classification)

        # best split of each eligible node, a leaf when no split has a positive
        # gain; a level without eligible nodes skips the scan (same result)
        eligible = ~pure & (sizes >= 2 * min_leaf) & (depth < max_depth)
        feat_l = np.full(P, -1, dtype=np.int64)
        thr_l = np.full(P, np.nan)
        if eligible.any():
            elig = np.flatnonzero(eligible)
            # k == d draws every feature, in index order
            subs = feature_subsets(seeds[open_tree[elig]], open_pt[elig], d, k)
            es = sizes[elig]
            node, feat, thr, decrease = choose_splits(
                split_gains(lists, gy, es, rows_g[np.repeat(eligible, sizes)], subs, tot1[elig],
                            None if classification else tot2[elig], parent_imp[elig], min_leaf),
                subs, es, parent_imp[elig], stacked, src)
            np.add.at(imp_raw, (open_tree[elig[node]] // T, feat), decrease)
            feat_l[elig[node]] = feat
            thr_l[elig[node]] = thr
        levels.append((open_tree, feat_l, thr_l, value, sizes))

        # rows of a split node move to their child's ordinal on the next
        # level, whose open nodes are the children in split order; rows of a
        # leaf leave
        is_split = feat_l >= 0
        child = 2 * np.cumsum(is_split) - 2   # read at split nodes only
        split = is_split[o]
        rows, o = rows[split], o[split]
        o = child[o] + (stacked[src[rows], feat_l[o]] > thr_l[o])
        # levels run in depth order, so a tree's last leaf level is its depth
        tree_depths[open_tree[~is_split]] = depth
        # the children's within-tree creation indices run on from the tree's
        # last one, in split order.  open_tree is non-decreasing at every
        # level (roots in tree order, children after their parents), so a
        # tree's children are adjacent and searchsorted finds its first one
        open_tree = np.repeat(open_tree[is_split], 2)
        open_pt = (tree_next_pt[open_tree] + np.arange(len(open_tree))
                   - np.searchsorted(open_tree, open_tree))
        tree_next_pt += np.bincount(open_tree, minlength=G * T)
        depth += 1

    # regroup the level tables set by set.  A set's table stays level
    # ordered, so the children of its j-th split are its nodes T + 2j and
    # T + 2j + 1
    tree, feature, threshold, value, count = map(np.concatenate, zip(*levels))
    owner = tree // T
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(G + 1))
    feature, threshold, value, count = (a[order] for a in (feature, threshold, value, count))
    models = []
    for g, (_, _, seed) in enumerate(sets):
        own = slice(bounds[g], bounds[g + 1])
        is_split = feature[own] >= 0
        left = np.full(len(is_split), -1, dtype=np.int64)
        left[is_split] = T + 2 * np.arange(int(is_split.sum()))
        models.append(ForestModel(
            config=config, seed=int(seed), n_features=d, feature=feature[own],
            threshold=threshold[own], left=left, value=value[own], count=count[own],
            tree_depths=tree_depths[g * T:(g + 1) * T], importances_raw=imp_raw[g]))
    return models


# ---- serialization ---------------------------------------------------


def _node_doc(model: ForestModel, gid: int) -> dict:
    if model.feature[gid] < 0:
        return {"value": float(model.value[gid]), "count": int(model.count[gid])}
    return {
        "feature": int(model.feature[gid]),
        "threshold": float(model.threshold[gid]),
        "count": int(model.count[gid]),
        "left": _node_doc(model, int(model.left[gid])),
        "right": _node_doc(model, int(model.left[gid]) + 1),
    }


def forest_to_doc(model: ForestModel) -> dict:
    """JSON-serializable document for a trained forest.

    The node table, config and seed are the whole forest, so a reloaded
    model predicts and gives out-of-bag accuracy exactly as the trained one.
    """
    return {
        "format": FOREST_FORMAT,
        "mode": model.mode,
        "config": {key: getattr(model.config, key) for key in CONFIG_SCHEMA},
        "seed": int(model.seed),
        "n_features": int(model.n_features),
        "importances": [float(v) for v in model.importances_raw],
        "trees": [_node_doc(model, t) for t in range(model.n_trees)],
    }


def _doc_ints(values: list, key: str, what: str, lo: int, hi: int = 2 ** 63) -> np.ndarray:
    """Integers in ``[lo, hi)``, never a bool or a float, checked in bulk, as int64.

    ``lo >= 0`` and ``hi <= 2**63`` keep every accepted value inside int64.
    """
    if set(map(type, values)) <= {int} and (not values or lo <= min(values)
                                             and max(values) < hi):
        return np.array(values, dtype=np.int64)
    bad = next(v for v in values if type(v) is not int or not lo <= v < hi)
    raise ValueError(f"forest field {key!r} must be {what}, got {brief(bad)}")


def _doc_floats(values: list, key: str) -> np.ndarray:
    """Finite numbers as a float64 array; an integer is accepted, a bool is not."""
    if set(map(type, values)) <= {int, float}:
        try:
            array = np.array(values, dtype=np.float64)
        except OverflowError:   # an integer beyond the float range
            pass
        else:
            if np.all(np.isfinite(array)):
                return array
    bad = next(v for v in values if type(v) not in (int, float) or not finite(v))
    raise ValueError(f"forest field {key!r} must be a finite number, got {brief(bad)}")


# the forest seed may use all 64 bits: derived seeds do
_DOC_SCHEMA = {"format": (int, REQUIRED), "mode": (str, REQUIRED), "config": (dict, REQUIRED),
               "seed": (int, REQUIRED, 0, 2 ** 64), "n_features": (int, REQUIRED, 1),
               "importances": (list, REQUIRED), "trees": (list, REQUIRED)}


def forest_from_doc(doc: dict) -> ForestModel:
    """Rebuild a forest from ``forest_to_doc`` output.

    The document and its config go through ``read_fields``, the reader of
    every config and strategy file; the nodes, thousands per forest, are
    checked here in bulk.  Raises ``ValueError`` naming the field for a
    malformed document: a missing or unknown field, a bool or float where
    an integer belongs, an integer out of its range, a non-finite number,
    or a feature index outside ``[0, n_features)`` (the prediction walk
    indexes a flattened matrix, so such a node would silently read the
    next row).
    """
    top = read_fields(doc, _DOC_SCHEMA, "forest", "document")
    if top["format"] != FOREST_FORMAT:
        raise ValueError(f"unsupported forest format: {brief(top['format'])}")
    cfg = ForestConfig(**read_fields(top["config"], CONFIG_SCHEMA, "forest", "config"))
    if top["mode"] != cfg.mode:
        raise ValueError(f"forest mode {brief(top['mode'])} differs from its "
                         f"config mode {cfg.mode!r}")
    n_features = top["n_features"]
    if len(top["importances"]) != n_features:
        raise ValueError(f"forest importances must be {n_features} finite values")
    importances = _doc_floats(top["importances"], "importances")
    feature, threshold, left, value, count = [], [], [], [], []
    queue = [(tree, t, 0) for t, tree in enumerate(top["trees"])]
    depths = [0] * len(queue)
    try:
        # one FIFO over all trees numbers the nodes in the level order
        # train_forest builds: node i is queue[i], so the roots come first
        # and each right child sits one slot after its left sibling.  The
        # nodes' numbers are checked in bulk below
        for node, t, depth in queue:
            if not isinstance(node, dict):
                raise ValueError(f"forest node must be an object, got {brief(node)}")
            count.append(node["count"])
            if "value" in node:
                left.append(-1)
                value.append(node["value"])
                depths[t] = max(depths[t], depth)
            else:
                feature.append(node["feature"])
                threshold.append(node["threshold"])
                left.append(len(queue))
                queue.append((node["left"], t, depth + 1))
                queue.append((node["right"], t, depth + 1))
            # a node with keys of both kinds, or unknown ones, would load as
            # one kind and silently drop the rest
            if len(node) != (2 if "value" in node else 5):
                raise ValueError(f"forest node has unexpected keys: {sorted(node)}")
    except KeyError as exc:
        raise ValueError(f"forest node is missing field {exc}") from None
    if len(depths) != cfg.n_trees:
        raise ValueError(f"forest holds {len(depths)} trees, its config says {cfg.n_trees}")
    left = np.array(left, dtype=np.int64)
    internal = left >= 0
    node_feature = np.full(len(left), -1, dtype=np.int64)
    node_feature[internal] = _doc_ints(feature, "feature",
                                       f"a feature index in [0, {n_features})", 0, n_features)
    node_threshold = np.full(len(left), np.nan)
    node_threshold[internal] = _doc_floats(threshold, "threshold")
    node_value = np.full(len(left), np.nan)
    node_value[~internal] = _doc_floats(value, "value")
    return ForestModel(
        config=cfg, seed=top["seed"], n_features=n_features, feature=node_feature,
        threshold=node_threshold, left=left, value=node_value,
        count=_doc_ints(count, "count", "a non-negative integer below 2**63", 0),
        tree_depths=depths, importances_raw=importances)
