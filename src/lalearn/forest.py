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
independent of any scheduling.

A forest's node table is level-ordered, whether trained or loaded.
Nodes ``[0, T)`` are the roots of the ``T`` trees in tree order; each
later level holds the children of the previous level's splits, in split
order, left child then right child.  So a level's nodes have consecutive
ids, training builds each level's table as its own arrays, and the
forest's table is their concatenation.

Split semantics, shared by every code path:

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
from dataclasses import dataclass, replace

import numpy as np

from .seeding import derive_seed

FOREST_FORMAT = 1


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
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be at least 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be at least 1")
        if self.mode not in ("classification", "regression"):
            raise ValueError(f"unknown mode {self.mode!r}")


def regressor_config(n_trees: int = 100, min_leaf_size: int = 80, **kwargs) -> ForestConfig:
    """Default configuration for the error-reduction regressor.

    The wide leaves matter: per-episode loss reductions are individually
    noisy, and a regressor that chases them point by point ranks
    candidates by noise instead of signal.
    """
    return ForestConfig(n_trees=n_trees, min_leaf_size=min_leaf_size,
                        mode="regression", **kwargs)


class ForestModel:
    """A trained forest.

    Nodes of all trees live in shared flat arrays; node ``i < n_trees`` is
    the root of tree ``i``.  ``feature[j] == -1`` marks a leaf.  Sibling nodes
    occupy adjacent slots: the right child of node ``j`` is ``left[j] + 1``.
    Models are immutable after training and safe to share between
    processes.
    """

    def __init__(self, *, mode, config, seed, n_features, feature,
                 threshold, left, value, count, tree_depths,
                 importances_raw, bootstrap=None, n_train=None):
        self.mode = mode
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
        self.bootstrap = bootstrap
        self.n_train = n_train

    @property
    def n_trees(self) -> int:
        return self.config.n_trees

    # ---- prediction -------------------------------------------------

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value reached in every tree for every row: shape (n_trees, N)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        n, d = X.shape
        if n == 0:
            return np.empty((self.n_trees, 0))
        # walk all (tree, sample) pairs level by level, compacting away the
        # pairs that already reached a leaf; x > threshold steps to the
        # right sibling, which sits one slot after the left child
        flat = np.ascontiguousarray(X).reshape(-1)
        node = np.repeat(np.arange(self.n_trees), n)
        alive = np.flatnonzero(self.feature[node] >= 0)
        current = node[alive]
        rows = (alive % n) * d
        feat = self.feature[current]
        while len(alive):
            xv = flat[rows + feat]
            nxt = self.left[current] + (xv > self.threshold[current])
            feat = self.feature[nxt]
            done = feat < 0
            if done.any():
                finished = alive[done]
                node[finished] = nxt[done]
                keep = ~done
                alive = alive[keep]
                current = nxt[keep]
                rows = rows[keep]
                feat = feat[keep]
            else:
                current = nxt
        return self.value[node].reshape(self.n_trees, n)

    def tree_predictions_batch(self, X) -> np.ndarray:
        """Per-tree predictions for a batch of rows, shape (n_trees, N)."""
        return self._leaf_values(X)

    def predict_proba_batch(self, X) -> np.ndarray:
        """Class-0 probability (mean of leaf class-0 frequencies) per row."""
        if self.mode != "classification":
            raise ValueError("predict_proba requires a classification forest")
        return tree_mean(self._leaf_values(X))

    def predict_regression_batch(self, X) -> np.ndarray:
        """Mean of leaf target means per row."""
        if self.mode != "regression":
            raise ValueError("predict_regression requires a regression forest")
        return tree_mean(self._leaf_values(X))

    # ---- introspection ----------------------------------------------

    def oob_accuracy(self, features, targets) -> float:
        """Out-of-bag accuracy on the training set.

        Each sample is voted on by the trees whose bootstrap excludes it
        (one hard vote per tree, ties toward class 0).  Samples in every
        bootstrap are skipped; when no sample has an excluding tree the
        accuracy is 1.0, so the learning-state feature stays finite on
        tiny labeled sets.
        """
        if self.mode != "classification":
            raise ValueError("oob_accuracy requires a classification forest")
        if self.bootstrap is None:
            raise ValueError("bootstrap records were not kept (model was deserialized)")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        targets = np.asarray(targets)
        n = features.shape[0]
        if n != self.n_train or n != len(targets):
            raise ValueError("oob_accuracy expects the exact training set")
        leaf = self._leaf_values(features)
        included = np.zeros((self.n_trees, n), dtype=bool)
        included[np.arange(self.n_trees)[:, None], self.bootstrap] = True
        excluding = ~included
        n_votes = excluding.sum(axis=0)
        votes_class1 = ((leaf < 0.5) & excluding).sum(axis=0)
        covered = n_votes > 0
        if not covered.any():
            return 1.0
        predicted = np.where(votes_class1 * 2 > n_votes, 1, 0)
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


def tree_mean(leaf: np.ndarray) -> np.ndarray:
    """Mean over trees of a (n_trees, N) leaf matrix, summed in tree order.

    A row gets the same bits whatever the batch size.  numpy sums a
    (T, N >= 2) matrix down axis 0 one tree at a time but a single column
    pairwise, so that column takes ``cumsum``, which always adds in order;
    wide batches keep ``sum``, which is ~10x cheaper than ``cumsum`` there.
    """
    if leaf.shape[1] == 1:
        return np.cumsum(leaf, axis=0)[-1] / leaf.shape[0]
    return leaf.sum(axis=0) / leaf.shape[0]


# ---- split scan --------------------------------------------------------


def best_split(feature_column, targets, criterion: str = "gini",
               min_leaf_size: int = 1):
    """Best threshold for one feature, or ``None`` when no split exists.

    Scans midpoints of consecutive distinct sorted values and returns
    ``(threshold, impurity_decrease)`` maximizing the decrease; ties break
    toward the smallest threshold.  A constant column (or one whose every
    boundary violates ``min_leaf_size``) yields ``None``.
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
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    if xs[0] == xs[-1]:
        return None
    nf = float(n)
    nl = np.arange(1, n, dtype=np.float64)
    nr = nf - nl
    c1 = np.cumsum(ys)[:-1]
    if criterion == "gini":
        tot1 = float(np.cumsum(ys)[-1])
        parent = 1.0 - ((nf - tot1) ** 2 + tot1 ** 2) / (nf * nf)
        l1 = c1
        l0 = nl - l1
        r1 = tot1 - l1
        r0 = nr - r1
        gl = 1.0 - (l0 * l0 + l1 * l1) / (nl * nl)
        gr = 1.0 - (r0 * r0 + r1 * r1) / (nr * nr)
    else:
        c2 = np.cumsum(ys * ys)[:-1]
        tot1 = float(np.cumsum(ys)[-1])
        tot2 = float(np.cumsum(ys * ys)[-1])
        parent = tot2 / nf - (tot1 / nf) ** 2
        ml = c1 / nl
        mr = (tot1 - c1) / nr
        gl = c2 / nl - ml * ml
        gr = (tot2 - c2) / nr - mr * mr
    gain = parent - (nl * gl + nr * gr) / nf
    valid = (xs[1:] > xs[:-1]) & (nl >= min_leaf_size) & (nr >= min_leaf_size)
    if not valid.any():
        return None
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    threshold = (xs[best] + xs[best + 1]) * 0.5
    return float(threshold), float(gain[best])


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


def train_forest(features, targets, config: ForestConfig | None = None,
                 seed: int = 0) -> ForestModel:
    """Train a bagged forest on ``features``/``targets``.

    Every tree is fit on an N-sample bootstrap generated by a counted hash
    of ``(seed, tree_index)``; per-split feature subsets come from a
    generator seeded the same way.  Classification targets must be 0/1.
    """
    config = config or ForestConfig()
    X = np.ascontiguousarray(np.atleast_2d(features), dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).ravel()
    n, d = X.shape
    if n == 0:
        raise ValueError("empty training set")
    if len(y) != n:
        raise ValueError("targets must match features row count")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("training data contains non-finite values")
    classification = config.mode == "classification"
    if classification and not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("classification targets must be 0 or 1")

    k = config.features_per_split or math.ceil(math.sqrt(d))
    k = min(k, d)
    config = replace(config, features_per_split=k)
    T = config.n_trees
    min_leaf = config.min_leaf_size
    max_depth = math.inf if config.max_depth is None else config.max_depth

    tree_seeds = np.array([derive_seed(seed, "tree", t) for t in range(T)],
                          dtype=np.uint64)
    bootstrap = bootstrap_matrix(tree_seeds, n)
    gx = X[bootstrap.reshape(-1)]
    gy = y[bootstrap.reshape(-1)]

    levels = []   # per level: feature, threshold, left, value, count
    n_nodes = 0
    tree_depths = np.zeros(T, dtype=np.int64)
    imp_raw = np.zeros(d)

    open_tree = np.arange(T)
    open_pt = np.zeros(T, dtype=np.int64)   # within-tree creation index
    tree_next_pt = np.ones(T, dtype=np.int64)
    row_ord = np.repeat(np.arange(T), n)    # open-node ordinal of each row, -1 once in a leaf
    depth = 0

    while len(open_tree):
        P = len(open_tree)
        n_nodes += P   # this level's nodes are [n_nodes - P, n_nodes)
        rows = np.flatnonzero(row_ord >= 0)
        o = row_ord[rows]
        rows_g = rows[np.argsort(o, kind="stable")]
        sizes = np.bincount(o, minlength=P)
        starts = np.cumsum(sizes) - sizes
        ends = starts + sizes - 1
        y_g = gy[rows_g]
        szf = sizes.astype(np.float64)
        cs1 = np.cumsum(y_g)
        tot1 = cs1[ends] - np.where(starts > 0, cs1[np.maximum(starts - 1, 0)], 0.0)
        if classification:
            value = (szf - tot1) / szf
            parent_imp = 1.0 - ((szf - tot1) ** 2 + tot1 ** 2) / (szf * szf)
            pure = (tot1 == 0.0) | (tot1 == szf)
        else:
            cs2 = np.cumsum(y_g * y_g)
            tot2 = cs2[ends] - np.where(starts > 0, cs2[np.maximum(starts - 1, 0)], 0.0)
            value = tot1 / szf
            parent_imp = tot2 / szf - value * value
            mn = np.minimum.reduceat(y_g, starts)
            pure = mn == np.maximum.reduceat(y_g, starts)
            value = np.where(pure, mn, value)  # exact constant, no float dust

        # best split of each eligible node; it stays a leaf when no split
        # has a positive gain.  A level without eligible nodes skips the
        # scan, which would run on empty arrays to the same result
        eligible = ~pure & (sizes >= 2 * min_leaf) & (depth < max_depth)
        feat_l = np.full(P, -1, dtype=np.int64)
        thr_l = np.full(P, np.nan)
        if eligible.any():
            elig = np.flatnonzero(eligible)
            es = sizes[elig]
            eb = np.cumsum(es) - es
            erows = rows_g[np.repeat(eligible, sizes)]
            # k == d draws every feature, in index order
            subs = feature_subsets(tree_seeds[open_tree[elig]], open_pt[elig], d, k)

            seg_sizes = np.repeat(es, k)
            seg_starts = np.cumsum(seg_sizes) - seg_sizes
            total_occ = int(seg_sizes.sum())
            occ_seg = np.repeat(np.arange(len(elig) * k), seg_sizes)
            occ_off = np.repeat(seg_starts, seg_sizes)
            occ_pos = np.arange(total_occ) - occ_off
            occ_node = occ_seg // k
            occ_rows = erows[eb[occ_node] + occ_pos]
            occ_feat = subs.reshape(-1)[occ_seg]
            vals = gx[occ_rows, occ_feat]
            tars = gy[occ_rows]

            sorder = np.lexsort((vals, occ_seg))
            sv = vals[sorder]
            st = tars[sorder]
            c1 = np.cumsum(st)
            l1 = c1 - np.where(occ_off > 0, c1[np.maximum(occ_off - 1, 0)], 0.0)
            nn_i = es[occ_node]
            nn = nn_i.astype(np.float64)
            nl = (occ_pos + 1).astype(np.float64)
            nr = nn - nl
            etot1 = tot1[elig]
            # last positions in each segment have nr == 0; they are masked
            # below, so the nan they produce here is harmless
            with np.errstate(divide="ignore", invalid="ignore"):
                if classification:
                    tl1 = l1
                    tl0 = nl - tl1
                    tr1 = etot1[occ_node] - tl1
                    tr0 = nr - tr1
                    gl = 1.0 - (tl0 * tl0 + tl1 * tl1) / (nl * nl)
                    gr = 1.0 - (tr0 * tr0 + tr1 * tr1) / (nr * nr)
                else:
                    c2 = np.cumsum(st * st)
                    l2 = c2 - np.where(occ_off > 0, c2[np.maximum(occ_off - 1, 0)], 0.0)
                    etot2 = tot2[elig]
                    mean_l = l1 / nl
                    mean_r = (etot1[occ_node] - l1) / nr
                    gl = l2 / nl - mean_l * mean_l
                    gr = (etot2[occ_node] - l2) / nr - mean_r * mean_r
                gain = parent_imp[elig][occ_node] - (nl * gl + nr * gr) / nn

            next_differs = np.zeros(total_occ, dtype=bool)
            next_differs[:-1] = sv[1:] > sv[:-1]
            valid = ((occ_pos < nn_i - 1) & next_differs
                     & (nl >= min_leaf) & (nr >= min_leaf))
            gain = np.where(valid, gain, -np.inf)
            node_max = np.maximum.reduceat(gain, seg_starts[np.arange(len(elig)) * k])
            cand = valid & (node_max[occ_node] > 0.0) & (gain == node_max[occ_node])
            ci = np.flatnonzero(cand)
            cn = occ_node[ci]
            cthr = (sv[ci] + sv[ci + 1]) * 0.5
            cft = occ_feat[ci]
            psel = np.lexsort((cft, cthr, cn))
            first = np.ones(len(psel), dtype=bool)
            first[1:] = cn[psel][1:] != cn[psel][:-1]
            pick = psel[first]
            pn = cn[pick]
            pocc = ci[pick]
            np.add.at(imp_raw, cft[pick],
                      nn[pocc] * parent_imp[elig][pn]
                      - (nl[pocc] * gl[pocc] + nr[pocc] * gr[pocc]))
            feat_l[elig[pn]] = cft[pick]
            thr_l[elig[pn]] = cthr[pick]

        # this level's node table; the children of its S splits are the
        # next level, numbered in split order from n_nodes
        is_split = feat_l >= 0
        split_ord = np.flatnonzero(is_split)
        S = len(split_ord)
        left_l = np.full(P, -1, dtype=np.int64)
        left_l[split_ord] = n_nodes + 2 * np.arange(S)
        levels.append((feat_l, thr_l, left_l, value, sizes))

        # within-tree creation indices for the children: sequential per
        # tree, in split order.  open_tree is non-decreasing at every level
        # (roots in tree order; split_ord is ascending and children follow
        # their parents), so each tree's splits are adjacent and
        # searchsorted finds the first one
        split_tree = open_tree[split_ord]
        rank = np.arange(S) - np.searchsorted(split_tree, split_tree)
        left_pt = tree_next_pt[split_tree] + 2 * rank
        tree_next_pt += 2 * np.bincount(split_tree, minlength=T)

        # rows of a split node move to their child's ordinal on the next
        # level, rows of a leaf leave
        split = is_split[o]
        srows = rows[split]
        so = o[split]
        row_ord[srows] = left_l[so] - n_nodes + (gx[srows, feat_l[so]] > thr_l[so])
        row_ord[rows[~split]] = -1
        np.maximum.at(tree_depths, open_tree[~is_split], depth)
        open_tree = np.repeat(split_tree, 2)
        open_pt = (left_pt[:, None] + np.arange(2)).reshape(-1)
        depth += 1

    feature, threshold, left, value, count = map(np.concatenate, zip(*levels))
    return ForestModel(
        mode=config.mode, config=config, seed=int(seed), n_features=d,
        feature=feature, threshold=threshold, left=left, value=value, count=count,
        tree_depths=tree_depths, importances_raw=imp_raw,
        bootstrap=bootstrap, n_train=n)


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

    Bootstrap bookkeeping is not persisted, so out-of-bag accuracy is
    unavailable on a reloaded model; predictions round-trip exactly.
    """
    cfg = model.config
    return {
        "format": FOREST_FORMAT,
        "mode": model.mode,
        "config": {
            "n_trees": cfg.n_trees,
            "max_depth": cfg.max_depth,
            "min_leaf_size": cfg.min_leaf_size,
            "features_per_split": cfg.features_per_split,
            "mode": cfg.mode,
        },
        "seed": int(model.seed),
        "n_features": int(model.n_features),
        "importances": [float(v) for v in model.importances_raw],
        "trees": [_node_doc(model, t) for t in range(model.n_trees)],
    }


def forest_from_doc(doc: dict) -> ForestModel:
    """Rebuild a forest from ``forest_to_doc`` output.

    Raises ``ValueError`` for a malformed document, including feature
    indices outside ``[0, n_features)``: the prediction walk indexes a
    flattened matrix, so such a node would silently read the next row.
    """
    if not isinstance(doc, dict):
        raise ValueError("forest document must be a JSON object")
    if doc.get("format") != FOREST_FORMAT:
        raise ValueError(f"unsupported forest format: {doc.get('format')!r}")
    feature, threshold, left, value, count = [], [], [], [], []
    try:
        mode, cfg = doc["mode"], ForestConfig(**doc["config"])
        n_features = int(doc["n_features"])
        importances = np.asarray(doc["importances"], dtype=np.float64)
        queue = [(tree, t, 0) for t, tree in enumerate(doc["trees"])]
        depths = [0] * len(queue)
        # one FIFO over all trees numbers the nodes in the level order
        # train_forest builds: node i is queue[i], so the roots come first
        # and each right child sits one slot after its left sibling
        for node, t, depth in queue:
            count.append(int(node.get("count", 0)))
            if "value" in node:
                feature.append(-1)
                threshold.append(np.nan)
                left.append(-1)
                value.append(float(node["value"]))
                depths[t] = max(depths[t], depth)
                continue
            feature.append(int(node["feature"]))
            threshold.append(float(node["threshold"]))
            left.append(len(queue))
            value.append(np.nan)
            queue.append((node["left"], t, depth + 1))
            queue.append((node["right"], t, depth + 1))
    except KeyError as exc:
        raise ValueError(f"forest document is missing field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed forest document: {exc}") from None

    feature = np.asarray(feature, dtype=np.int64)
    threshold = np.asarray(threshold, dtype=np.float64)
    value = np.asarray(value, dtype=np.float64)
    count = np.asarray(count, dtype=np.int64)
    internal = np.asarray(left, dtype=np.int64) >= 0
    if np.any((feature[internal] < 0) | (feature[internal] >= n_features)):
        raise ValueError(f"forest node feature index outside [0, {n_features})")
    if not (np.all(np.isfinite(threshold[internal]))
            and np.all(np.isfinite(value[~internal]))):
        raise ValueError("forest thresholds and leaf values must be finite")
    if np.any(count < 0):
        raise ValueError("forest node counts must be non-negative")
    if importances.shape != (n_features,) or not np.all(np.isfinite(importances)):
        raise ValueError(f"forest importances must be {n_features} finite values")
    if len(depths) != cfg.n_trees:
        raise ValueError(f"forest holds {len(depths)} trees, its config says {cfg.n_trees}")
    return ForestModel(
        mode=mode, config=cfg, seed=int(doc.get("seed", 0)),
        n_features=n_features, feature=feature, threshold=threshold,
        left=left, value=value, count=count, tree_depths=depths,
        importances_raw=importances, bootstrap=None, n_train=None)

