"""Forest training, prediction, introspection, and serialization."""

import hashlib
import json
import math
import pickle
from functools import cached_property

import numpy as np
import pytest

from lalearn import forest
from lalearn.data import gen_gaussian_clouds, split
from lalearn.forest import (CONFIG_SCHEMA, ForestConfig, ForestModel, best_split,
                            bootstrap_matrix, forest_from_doc, forest_to_doc, regressor_config,
                            train_forest, train_forests, tree_seeds)
from lalearn.seeding import derive_seed


# ---------------------------------------------------------------------------
# reference builder: one tree at a time, breadth first, plain numpy.  It
# consumes randomness exactly like the production trainer (bootstrap first,
# then one feature-subset draw per scanned node in BFS order) so the trees
# must come out identical.
# ---------------------------------------------------------------------------


def _scan_feature(x, y, criterion, min_leaf):
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = len(x)
    nf = float(n)
    nl = np.arange(1, n, dtype=np.float64)
    nr = nf - nl
    c1 = np.cumsum(ys)[:-1]
    tot1 = float(np.cumsum(ys)[-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        if criterion == "gini":
            parent = 1.0 - ((nf - tot1) ** 2 + tot1 ** 2) / (nf * nf)
            l0 = nl - c1
            r1 = tot1 - c1
            r0 = nr - r1
            gl = 1.0 - (l0 * l0 + c1 * c1) / (nl * nl)
            gr = 1.0 - (r0 * r0 + r1 * r1) / (nr * nr)
        else:
            c2 = np.cumsum(ys * ys)[:-1]
            tot2 = float(np.cumsum(ys * ys)[-1])
            parent = tot2 / nf - (tot1 / nf) ** 2
            ml, mr = c1 / nl, (tot1 - c1) / nr
            gl = c2 / nl - ml * ml
            gr = (tot2 - c2) / nr - mr * mr
        gain = parent - (nl * gl + nr * gr) / nf
    valid = (xs[1:] > xs[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    results = []
    for b in np.flatnonzero(valid):
        results.append(((xs[b] + xs[b + 1]) * 0.5, float(gain[b])))
    return results


_MASK = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_WEYL = 0xB5297A4D3F84D5B9


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _reference_bootstrap(tree_seed, n):
    """Counted splitmix64 hash, implemented independently with python ints."""
    return np.array([_mix((tree_seed + j * _GOLD) & _MASK) % n
                     for j in range(1, n + 1)], dtype=np.int64)


def _draws(model, n):
    """The forest's bootstrap draws on ``n`` rows, regenerated from its seed."""
    return bootstrap_matrix(tree_seeds(model.seed, model.n_trees), n)


def _oob(model, X, y):
    """``oob_accuracy`` on a read-out of the training rows ``X``."""
    return model.oob_accuracy(*model.tree_predictions_batch(X), y)


def _reference_subset(tree_seed, node_id, d, k):
    """The k features with the smallest per-feature node hashes."""
    hashes = [_mix((tree_seed + node_id * _WEYL + (f + 1) * _GOLD) & _MASK)
              for f in range(d)]
    return sorted(sorted(range(d), key=lambda f: hashes[f])[:k])


def _reference_tree(X, y, config, seed, tree_index):
    n, d = X.shape
    classification = config.mode == "classification"
    criterion = "gini" if classification else "variance"
    k = min(config.features_per_split or math.ceil(math.sqrt(d)), d)
    max_depth = math.inf if config.max_depth is None else config.max_depth
    tree_seed = derive_seed(seed, "tree", tree_index)
    bootstrap = _reference_bootstrap(tree_seed, n)
    bx, by = X[bootstrap], y[bootstrap]
    nodes = [None]  # dicts {feature,threshold,left,right,value,count,ambiguous}
    next_id = 1
    depth_max = 0
    queue = [(0, np.arange(n), 0)]
    while queue:
        node_id, rows, depth = queue.pop(0)
        yv = by[rows]
        count = len(rows)
        if classification:
            ones = float(yv.sum())
            value = (count - ones) / count
            pure = ones in (0.0, float(count))
        else:
            pure = yv.min() == yv.max()
            value = float(yv[0]) if pure else float(np.cumsum(yv)[-1]) / count
        record = {"feature": -1, "threshold": np.nan, "left": -1, "right": -1,
                  "value": value, "count": count, "ambiguous": False}
        nodes[node_id] = record
        eligible = (not pure) and count >= 2 * config.min_leaf_size and depth < max_depth
        best = None
        candidates = []
        if eligible:
            subset = (_reference_subset(tree_seed, node_id, d, k) if k < d
                      else range(d))
            for f in subset:
                for thr, gain in _scan_feature(bx[rows, f], yv, criterion,
                                               config.min_leaf_size):
                    if gain <= 0.0:
                        continue
                    candidates.append((gain, thr, int(f)))
                    if best is None or gain > best[0] or (
                            gain == best[0] and thr < best[1]):
                        best = (gain, thr, int(f))
        if best is not None and not classification:
            # distinct candidates with gains equal up to float noise: the
            # winner is implementation-defined (classification gains are
            # exact integer arithmetic, so ties resolve identically there)
            for gain, thr, f in candidates:
                close = abs(gain - best[0]) <= 1e-9 * max(1.0, abs(best[0]))
                if close and (thr, f) != (best[1], best[2]):
                    record["ambiguous"] = True
        if best is None:
            depth_max = max(depth_max, depth)
            continue
        _, thr, f = best
        go_left = bx[rows, f] <= thr
        left_id, right_id = next_id, next_id + 1
        next_id += 2
        nodes.extend([None, None])
        record.update(feature=f, threshold=thr, left=left_id, right=right_id,
                      value=np.nan)
        queue.append((left_id, rows[go_left], depth + 1))
        queue.append((right_id, rows[~go_left], depth + 1))
    return nodes, depth_max, bootstrap


def _assert_tree_equal(model, tree_index, ref_nodes, mode):
    """Lockstep walk from the roots; subtrees under ambiguous splits are
    implementation-defined and not descended into."""
    stack = [(tree_index, 0)]
    compared = 0
    while stack:
        gid, ref_id = stack.pop()
        ref = ref_nodes[ref_id]
        assert int(model.count[gid]) == ref["count"]
        if ref["ambiguous"]:
            continue
        compared += 1
        assert int(model.feature[gid]) == ref["feature"]
        if ref["feature"] < 0:
            if mode == "classification":
                assert model.value[gid] == ref["value"]
            else:
                assert model.value[gid] == pytest.approx(ref["value"], rel=1e-9)
        else:
            assert model.threshold[gid] == ref["threshold"]
            stack.append((int(model.left[gid]), ref["left"]))
            stack.append((int(model.left[gid]) + 1, ref["right"]))
    return compared


@pytest.mark.parametrize("mode,min_leaf,max_depth", [
    ("classification", 1, None),
    ("classification", 3, None),
    ("classification", 1, 2),
    ("regression", 5, None),
    ("regression", 1, None),
    ("regression", 2, 4),
])
def test_trainer_matches_reference_builder(mode, min_leaf, max_depth):
    # regression trials stay at k == d: gains there are float-noisy, and a
    # noise-flipped split inside one subtree must not be allowed to shift
    # the tree-wide feature-subset draw stream that later nodes consume
    # (classification gains are exact, so any dimension is safe)
    rng = np.random.default_rng(99)
    total_compared = 0
    for trial in range(6):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(1, 8)) if mode == "classification" else int(rng.integers(1, 3))
        X = np.round(rng.normal(size=(n, d)), 2)  # duplicates provoke ties
        if mode == "classification":
            y = rng.integers(0, 2, size=n).astype(float)
        else:
            y = rng.normal(size=n)
        config = ForestConfig(n_trees=7, mode=mode, min_leaf_size=min_leaf,
                              max_depth=max_depth)
        seed = 1000 + trial
        model = train_forest(X, y, config, seed)
        for t in range(config.n_trees):
            ref_nodes, ref_depth, ref_boot = _reference_tree(X, y, model.config, seed, t)
            assert np.array_equal(_draws(model, n)[t], ref_boot)
            if not any(node["ambiguous"] for node in ref_nodes):
                assert int(model.tree_depths[t]) == ref_depth
            total_compared += _assert_tree_equal(model, t, ref_nodes, mode)
    assert total_compared >= 100  # the walks must reach real depth overall


# ---------------------------------------------------------------------------
# best_split
# ---------------------------------------------------------------------------


class TestBestSplit:
    def test_balanced_pair_example(self):
        thr, gain = best_split(np.array([1.0, 2, 3, 4]), np.array([0.0, 0, 1, 1]))
        assert thr == 2.5
        assert gain == 0.5

    def test_constant_feature_has_no_split(self):
        assert best_split(np.ones(6), np.array([0.0, 1, 0, 1, 0, 1])) is None

    def test_min_leaf_can_exclude_all_boundaries(self):
        assert best_split(np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                          min_leaf_size=2) is None

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            x = np.round(rng.normal(size=n), 1)
            y = rng.integers(0, 2, size=n).astype(float)
            for min_leaf_size in (1, 3):
                got = best_split(x, y, "gini", min_leaf_size)
                expected = _exhaustive_best(x, y, "gini", min_leaf_size)
                assert got == expected

    def test_variance_criterion_against_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            x = np.round(rng.normal(size=n), 1)
            y = rng.normal(size=n)
            for min_leaf_size in (1, 3):
                got = best_split(x, y, "variance", min_leaf_size)
                expected = _exhaustive_best(x, y, "variance", min_leaf_size)
                if expected is None:
                    assert got is None
                else:
                    assert got[0] == expected[0]
                    assert got[1] == pytest.approx(expected[1], rel=1e-9, abs=1e-12)

    def test_rejects_tiny_or_mismatched_input(self):
        with pytest.raises(ValueError):
            best_split(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            best_split(np.array([1.0, 2.0]), np.array([0.0, 0.5]), "gini")


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("n_trees", True), ("n_trees", 2.5), ("min_leaf_size", 1.5), ("max_depth", -1),
        ("features_per_split", 0),
    ])
    def test_rejects_what_a_forest_file_may_not_hold(self, field, value):
        with pytest.raises(ValueError, match=f"field '{field}' must be an integer"):
            ForestConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        config = ForestConfig(n_trees=np.int64(5), max_depth=np.int32(3),
                              min_leaf_size=np.uint8(2), features_per_split=np.int64(1))
        data = gen_gaussian_clouds(30, 0.5, 2.0, 2, seed=5)
        assert train_forest(data.features, data.labels, config, seed=1).n_trees == 5
        assert type(ForestConfig(n_trees=np.int16(3)).n_trees) is int


def _exhaustive_best(x, y, criterion, min_leaf_size):
    candidates = []
    for thr, gain in _scan_feature(np.asarray(x, float), np.asarray(y, float),
                                   criterion, min_leaf_size):
        candidates.append((thr, gain))
    if not candidates:
        return None
    best = candidates[0]
    for thr, gain in candidates[1:]:
        if gain > best[1]:
            best = (thr, gain)
    return best


# ---------------------------------------------------------------------------
# training and prediction behavior
# ---------------------------------------------------------------------------


class TestTraining:
    def test_single_class_training_set_predicts_that_class(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        model = train_forest(X, np.zeros(10), ForestConfig(n_trees=9), seed=1)
        assert np.all(model.predict_proba_batch(X) == 1.0)
        model1 = train_forest(X, np.ones(10), ForestConfig(n_trees=9), seed=1)
        assert np.all(model1.predict_proba_batch(X) == 0.0)

    @pytest.mark.parametrize("mode", ["classification", "regression"])
    def test_eligible_nodes_without_positive_gain_become_leaves(self, mode):
        # constant features: every root is impure and large enough to split,
        # yet no threshold exists, so each tree stays a single leaf
        n = 20
        X = np.full((n, 3), 1.5)
        y = np.arange(n) % 2 if mode == "classification" else np.linspace(0.0, 1.0, n)
        model = train_forest(X, y, ForestConfig(n_trees=6, mode=mode), seed=4)
        boot_y = y[_draws(model, n)].astype(float)
        assert np.all(boot_y.min(axis=1) < boot_y.max(axis=1))
        assert len(model.feature) == model.n_trees
        assert np.all(model.feature == -1) and np.all(model.left == -1)
        assert np.all(model.tree_depths == 0)
        assert np.all(model.count == n)
        assert np.all(model.importances_raw == 0.0)
        expected = ((boot_y == 0).mean(axis=1) if mode == "classification"
                    else boot_y.mean(axis=1))
        np.testing.assert_allclose(model.value, expected, rtol=1e-12)

    def test_two_point_cold_start_memorizes(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1])
        model = train_forest(X, y, ForestConfig(n_trees=50), seed=3)
        p = model.predict_proba_batch(X)
        assert p[0] > 0.5 and p[1] < 0.5

    def test_heldout_accuracy_near_bayes_rate_on_clouds(self):
        # two unit-variance clouds at distance 2: the optimal rule errs at
        # Phi(-1), so held-out accuracy should approach 1 - Phi(-1)
        bayes = 1.0 - 0.5 * (1.0 + math.erf(-1.0 / math.sqrt(2.0)))
        data = gen_gaussian_clouds(1000, 0.5, 2.0, 2, seed=21)
        train, test = split(data, 0.5, seed=4)
        model = train_forest(train.features, train.labels, ForestConfig(n_trees=50),
                             seed=8)
        predicted = (model.predict_proba_batch(test.features) < 0.5).astype(int)
        acc = float(np.mean(predicted == test.labels))
        assert acc > 0.80
        assert abs(acc - bayes) <= 0.05

    def test_retraining_is_bit_identical(self):
        data = gen_gaussian_clouds(100, 0.5, 2.0, 3, seed=2)
        a = train_forest(data.features, data.labels, seed=7)
        b = train_forest(data.features, data.labels, seed=7)
        grid = np.random.default_rng(1).normal(size=(50, 3))
        assert np.array_equal(a.predict_proba_batch(grid), b.predict_proba_batch(grid))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            train_forest(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            train_forest(np.ones((3, 2)), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            train_forest(np.array([[np.inf, 1.0]]), np.array([0]))


_FOREST_ARRAYS = ("feature", "threshold", "left", "value", "count", "tree_depths",
                  "importances_raw")


def _assert_same_forest(grouped, single, X, y):
    for name in _FOREST_ARRAYS:
        a, b = getattr(grouped, name), getattr(single, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert (grouped.seed, grouped.config) == (single.seed, single.config)
    grid = np.random.default_rng(0).normal(size=(64, X.shape[1]))
    for rows in (X, grid):
        assert grouped.predict_proba_batch(rows).tobytes() == \
            single.predict_proba_batch(rows).tobytes()
    assert _oob(grouped, X, y) == _oob(single, X, y)


def _mixed_sets(rng, d):
    """Sets of 1, 2, 3 and 17 rows, a pure set and a constant-feature set."""
    sets = []
    for n in (1, 2, 3, 17):
        X = np.round(rng.normal(size=(n, d)), 1)
        sets.append((X, rng.integers(0, 2, n), int(rng.integers(2 ** 63))))
    sets.append((rng.normal(size=(12, d)), np.ones(12), 5))
    constant = np.round(rng.normal(size=(10, d)), 1)
    constant[:, 0] = 2.5
    sets.append((constant, np.arange(10) % 2, 6))
    return sets


class TestGroupedTraining:
    @pytest.mark.parametrize("config", [
        ForestConfig(n_trees=9),                          # k = 2 < d = 3
        ForestConfig(n_trees=9, features_per_split=3),    # k = d
        ForestConfig(n_trees=9, max_depth=1),
    ], ids=["k_below_d", "k_equals_d", "max_depth_1"])
    def test_each_set_matches_its_own_fit(self, config):
        sets = _mixed_sets(np.random.default_rng(41), 3)
        grouped = train_forests(sets, config)
        assert len(grouped) == len(sets)
        for model, (X, y, seed) in zip(grouped, sets):
            _assert_same_forest(model, train_forest(X, y, config, seed), X, y)

    def test_a_cell_of_twenty_one_sets_and_a_single_set(self):
        # a Monte-Carlo cell: a base set and 20 one-row extensions of it
        data = gen_gaussian_clouds(60, 0.5, 1.0, 2, seed=42)
        config = ForestConfig(n_trees=50, features_per_split=1)
        base = list(range(14))
        sets = [(data.features[base], data.labels[base], 7)]
        for m, extra in enumerate(range(14, 34)):
            rows = base + [extra]
            sets.append((data.features[rows], data.labels[rows], 100 + m))
        grouped = train_forests(sets, config)
        for model, (X, y, seed) in zip(grouped, sets):
            _assert_same_forest(model, train_forest(X, y, config, seed), X, y)
        (alone,) = train_forests(sets[:1], config)
        _assert_same_forest(alone, grouped[0], *sets[0][:2])

    def test_regression_takes_one_set_and_some_set_is_required(self):
        rng = np.random.default_rng(43)
        X, y = rng.random((30, 7)), rng.random(30)
        config = regressor_config(n_trees=5, min_leaf_size=3)
        (model,) = train_forests([(X, y, 1)], config)
        single = train_forest(X, y, config, 1)
        for name in _FOREST_ARRAYS:
            assert getattr(model, name).tobytes() == getattr(single, name).tobytes()
        with pytest.raises(ValueError, match="one set"):
            train_forests([(X, y, 1), (X, y, 2)], config)
        with pytest.raises(ValueError, match="no training sets"):
            train_forests([], ForestConfig())
        with pytest.raises(ValueError, match="number of features"):
            train_forests([(X, y > 0.5, 1), (X[:, :3], y > 0.5, 2)], ForestConfig())

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
    def test_tree_seeds_are_the_derived_tree_seeds(self, seed):
        expected = np.array([derive_seed(seed, "tree", t) for t in range(1050)],
                            dtype=np.uint64)
        for n_trees in (1, 2, 50, 1050):
            assert np.array_equal(tree_seeds(seed, n_trees), expected[:n_trees])


def _learning_state_rows(rng, groups):
    """Rows shaped like learning states and their deltas.

    Each 21-row group shares its six classifier columns, p0 takes two
    decimals and the deltas are multiples of 0.001, so most rows tie on
    most features, as a Monte-Carlo cell's rows do.
    """
    shared = np.repeat(np.round(rng.random((groups, 6)), 3), 21, axis=0)
    p0 = np.round(rng.random(21 * groups), 2)
    deltas = np.round(rng.normal(0.005, 0.02, 21 * groups), 3)
    return np.column_stack([shared, p0]), deltas


def _digest_fits(case):
    rng = np.random.default_rng(61)
    if case == "cell_of_21":
        sets = [(np.round(rng.normal(size=(n, 4)), 1), rng.integers(0, 2, n), 1000 + n)
                for n in np.linspace(2, 64, 21).astype(int)]
        return train_forests(sets, ForestConfig(n_trees=20))
    if case == "classifier_deep":
        # labels that cycle every 5 rows along one feature: leaves end at
        # depths 22-44, and every tree has more than 64 leaves
        y = (np.arange(300) * 7) % 5 < 2
        return [train_forest(np.arange(300.0)[:, None], y, ForestConfig(n_trees=5), 3)]
    if case.startswith("classifier"):
        X, y = np.round(rng.normal(size=(40, 4)), 1), rng.integers(0, 2, 40)
        k = 1 if case == "classifier_k1" else 4
        return [train_forest(X, y, ForestConfig(n_trees=20, features_per_split=k), 9)]
    X, y = _learning_state_rows(rng, 24)
    kwargs = {"reg_leaf1": dict(min_leaf_size=1), "reg_leaf5": dict(min_leaf_size=5),
              "reg_leaf80": dict(min_leaf_size=80),
              "reg_depth3": dict(min_leaf_size=5, max_depth=3),
              "reg_k1": dict(min_leaf_size=5, features_per_split=1),
              "reg_k7": dict(min_leaf_size=5, features_per_split=7)}[case]
    # the default k is ceil(sqrt(7)) = 3
    return [train_forest(X, y, regressor_config(n_trees=20, **kwargs), 11)]


# SHA-256 of every trained array for a fixed matrix of fits: a change to
# the order of a prefix sum, a tie-break or the node numbering shows here
_TRAINER_DIGESTS = {
    "cell_of_21": "af9ae733cc6c24ce07a49c30b4a8f9a1f909179f4528eef00a8802f7a98569f6",
    "classifier_deep": "80de528523b5c78a95d6336bdc6f2efb1d7b92ff51f80afac31e9a469142ecfa",
    "classifier_k1": "379a792be270b1eb109f7dc7e6ba76035f49c82f948a0890bf0f3f9ad9eb874b",
    "classifier_kd": "27c624b88f15d234b8cd0e002cc4e6545bda02c81a4ec95cbe791b8552402ff8",
    "reg_leaf1": "58cf7f2e37a72346b392213c1d8dd2889352b9db42f6d1d85c4b6bab4a957011",
    "reg_leaf5": "767cfbed6a950adbe289c60a9245c866b3bf8b4fddb8d483fc7e28b0d6076464",
    "reg_leaf80": "13d9352f9fc9364ce173182110588ce59b782726cd20e0a873e045248e93374e",
    "reg_depth3": "79923e89de2a2cd9f916d766ef23b18d7dcd09f6df2ae152bc5281321d991dde",
    "reg_k1": "115120d107045f279e4674c6e4832cf93cf3d8fb6ac9da557eb19ccb94bbb5ec",
    "reg_k7": "32e1aae78c0495a4170376cf65e8d12f0d58648951b0f185fe9054bdb9c2c93e",
}


@pytest.mark.parametrize("case", sorted(_TRAINER_DIGESTS))
def test_trainer_output_digests(case):
    h = hashlib.sha256()
    for model in _digest_fits(case):
        for name in ("feature", "threshold", "left", "value", "count", "tree_depths",
                     "importances_raw"):
            h.update(getattr(model, name).tobytes())
    assert h.hexdigest() == _TRAINER_DIGESTS[case]


def _threshold_grid_rows(model, rng, n):
    """Rows whose every value is a threshold of the model or its float neighbour."""
    columns = []
    for f in range(model.n_features):
        cuts = np.unique(model.threshold[model.feature == f])
        values = np.concatenate([cuts, np.nextafter(cuts, -np.inf),
                                 np.nextafter(cuts, np.inf), [0.0]])
        columns.append(rng.choice(values, n))
    return np.column_stack(columns)


def _per_row(model, X):
    """The (n_trees, N) matrix of the leaf values every row of ``X`` reaches."""
    leaf, cell = model.tree_predictions_batch(X)
    return np.take(leaf, cell, axis=1)


class TestPrediction:
    def test_proba_is_mean_of_tree_predictions(self):
        data = gen_gaussian_clouds(80, 0.5, 2.0, 2, seed=12)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=13),
                             seed=5)
        x = np.array([[0.3, -0.2]])
        per_tree = _per_row(model, x)
        assert per_tree.shape == (13, 1)
        assert model.predict_proba_batch(x)[0] == per_tree[:, 0].mean()

    def test_read_out_has_two_contiguous_columns_at_least(self):
        # a lone cell's column is copied, so numpy sums the trees in order
        data = gen_gaussian_clouds(80, 0.5, 2.0, 2, seed=12)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=13),
                             seed=5)
        for X in (np.array([[0.3, -0.2]]), np.full((5, 2), 0.3), data.features):
            leaf, cell = model.tree_predictions_batch(X)
            assert leaf.flags.c_contiguous
            assert leaf.shape[1] == max(2, len(np.unique(cell)))
            assert np.array_equal(leaf.mean(axis=0), np.cumsum(leaf, axis=0)[-1] / 13)

    def test_batch_equals_single(self):
        # a row's mean over trees must not depend on the batch size; impure
        # leaves make the summation order visible in the last bit
        rng = np.random.default_rng(3)
        data = gen_gaussian_clouds(200, 0.5, 1.0, 2, seed=13)
        classifier = train_forest(data.features, data.labels,
                                  ForestConfig(n_trees=100, max_depth=2), seed=6)
        states = rng.random((2400, 7))
        regressor = train_forest(states, rng.random(2400),
                                 regressor_config(n_trees=100, min_leaf_size=10), seed=7)
        for predict, X in ((classifier.predict_proba_batch, rng.normal(size=(300, 2))),
                           (regressor.predict_regression_batch, rng.random((300, 7)))):
            batch = predict(X)
            singles = np.array([predict(X[[i]])[0] for i in range(len(X))])
            assert np.array_equal(batch, singles)

    def test_cell_walk_matches_one_row_calls(self):
        # rows on, just below and just above the forests' own thresholds,
        # many duplicates, and a batch that lies in a single cell
        rng = np.random.default_rng(31)
        data = gen_gaussian_clouds(16, 0.5, 1.0, 2, seed=32)
        classifier = train_forest(data.features, data.labels,
                                  ForestConfig(n_trees=50, features_per_split=1), seed=33)
        states = rng.random((600, 7))
        regressor = train_forest(states, rng.random(600),
                                 regressor_config(n_trees=100, min_leaf_size=10), seed=34)
        for model, predict in ((classifier, classifier.predict_proba_batch),
                               (regressor, regressor.predict_regression_batch)):
            grid = _threshold_grid_rows(model, rng, 150)
            duplicated = np.repeat(grid[:10], 15, axis=0)
            mixed = np.concatenate([grid, duplicated])[rng.permutation(300)]
            top = max(model.threshold[model.feature >= 0]) + 1.0
            single_cell = top + rng.random((40, model.n_features))
            for X in (mixed, single_cell):
                per_tree = _per_row(model, X)
                assert np.array_equal(per_tree, model._walk(X))
                one_row = np.hstack([_per_row(model, X[[i]]) for i in range(len(X))])
                assert np.array_equal(per_tree, one_row)
                assert np.array_equal(predict(X),
                                      [predict(X[[i]])[0] for i in range(len(X))])

    @pytest.mark.parametrize("path", ["table", "walk"])
    def test_reads_one_row_per_cell(self, monkeypatch, path):
        # the read-out kernel gets one row per cell, whether the bitvector
        # table or the walk serves the forest
        read = []
        kernel = ForestModel._cell_leaves

        def counting_kernel(model, X, ranks):
            read.append(len(X))
            return kernel(model, X, ranks)

        monkeypatch.setattr(ForestModel, "_cell_leaves", counting_kernel)
        # stumps that all split feature 0 at 0.5 leave two cells; a tree of
        # 65 leaves sends the forest down the walk
        extra = [_random_tree(np.random.default_rng(35), 65, 2)] if path == "walk" else []
        stumps = forest_from_doc(_forest_doc([
            {"feature": 0, "threshold": 0.5, "count": 2,
             "left": _leaf(v), "right": _leaf(1.0 - v)} for v in (0.25, 0.5, 1.0)] + extra))
        assert (stumps._bitvectors is None) == (path == "walk")
        X = np.random.default_rng(35).random((1000, 2))
        leaf, cell = stumps.tree_predictions_batch(X)
        assert read == [len(leaf[0])]
        assert np.array_equal(leaf[:3].mean(axis=0)[cell],
                              np.where(X[:, 0] > 0.5, 1.25 / 3, 1.75 / 3))
        if path == "walk":
            return

        # a trained forest reads one row per distinct rank vector
        data = gen_gaussian_clouds(12, 0.5, 1.0, 2, seed=36)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=50), seed=37)
        ranks = np.column_stack([
            np.searchsorted(np.unique(model.threshold[model.feature == f]), X[:, f])
            for f in range(2)])
        read.clear()
        model.tree_predictions_batch(X)
        assert read == [len(np.unique(ranks, axis=0))]
        assert read[0] < 100

        # cells are numbered by a presence mask while the key's radix is at
        # most _MASK_KEYS_PER_ROW * (rows + 64), and by np.unique's sort
        # above that: a batch at the bound and one row short of it number
        # their cells alike
        rng = np.random.default_rng(38)
        data = gen_gaussian_clouds(40, 0.5, 1.0, 2, seed=38)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=50), seed=39)
        radix = math.prod(len(cuts) + 1 for _, cuts in model._cuts)
        at_bound = -(-radix // forest._MASK_KEYS_PER_ROW) - 64
        assert radix <= forest._MASK_KEYS_PER_ROW * (at_bound + 64) < radix + 8
        rows = _threshold_grid_rows(model, rng, at_bound)
        rows[at_bound // 2:] = rows[rng.integers(0, at_bound // 2, at_bound - at_bound // 2)]
        unique = np.unique
        for X, sorts in ((rows, 0), (rows[:-1], 1)):
            ranks = np.column_stack([np.searchsorted(cuts, X[:, f]) for f, cuts in model._cuts])
            distinct = unique(ranks, axis=0)
            given, calls = [], []
            monkeypatch.setattr(ForestModel, "_cell_leaves", lambda model, X, ranks:
                                given.append(ranks) or kernel(model, X, ranks))
            monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
            leaf, cell = model.tree_predictions_batch(X)
            monkeypatch.undo()
            assert len(calls) == sorts
            # one row per distinct rank vector, cells numbered 0 ... C-1
            assert len(given) == 1 and len(given[0]) == len(distinct) < len(X)
            assert np.array_equal(unique(given[0], axis=0), distinct)
            assert np.array_equal(unique(cell), np.arange(len(distinct)))
            assert np.array_equal(ranks, given[0][cell])
            assert np.array_equal(np.take(leaf, cell, axis=1), model._walk(X))

    def test_cell_key_densifies_before_int64_overflow(self):
        # 40 features with 3 thresholds each make a radix product of 4**40;
        # rows that differ only in feature 0 would share a cell if the key
        # wrapped around int64
        def chain(f, leaves):
            node = _leaf(leaves[3])
            for cut, value in zip((2.5, 1.5, 0.5), leaves[2::-1]):
                node = {"feature": f, "threshold": cut, "count": 2,
                        "left": _leaf(value), "right": node}
            return node

        rng = np.random.default_rng(44)
        d = 40
        model = forest_from_doc(_forest_doc(
            [chain(f, rng.random(4).tolist()) for f in range(d)], n_features=d))
        assert math.prod(len(cuts) + 1 for _, cuts in model._cuts) > 2 ** 62
        X = rng.integers(0, 4, size=(200, d)).astype(float)
        shifted = X.copy()
        shifted[:, 0] = (shifted[:, 0] + 1) % 4
        X = np.concatenate([X, shifted])
        assert np.array_equal(_per_row(model, X), model._walk(X))
        assert np.array_equal(model.predict_proba_batch(X),
                              [model.predict_proba_batch(X[[i]])[0] for i in range(len(X))])

    @pytest.mark.parametrize("kind", ["table", "walk", "single_leaf"])
    def test_zero_rows_read_as_an_empty_batch(self, kind):
        rng = np.random.default_rng(46)
        X = rng.normal(size=(1000, 8))
        if kind == "table":
            model = train_forest(X[:40], (X[:40, 0] > 0).astype(int),
                                 ForestConfig(n_trees=5), seed=1)
            assert model._bitvectors is not None
        elif kind == "walk":
            # trees of hundreds of leaves, and a cell key densified on the way
            model = train_forest(X, X[:, 0], regressor_config(n_trees=3, min_leaf_size=1),
                                 seed=2)
            assert model._bitvectors is None
            assert math.prod(len(cuts) + 1 for _, cuts in model._cuts) > 2 ** 62
        else:
            model = train_forest(np.zeros((10, 8)), np.zeros(10), ForestConfig(n_trees=5),
                                 seed=3)
            assert not model._cuts
        leaf, cell = model.tree_predictions_batch(np.empty((0, 8)))
        assert leaf.shape == (model.n_trees, 0) and leaf.flags.c_contiguous
        assert cell.shape == (0,) and cell.dtype == np.int64
        predict = (model.predict_proba_batch if model.mode == "classification"
                   else model.predict_regression_batch)
        assert predict(np.empty((0, 8))).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_rejected(self, bad):
        data = gen_gaussian_clouds(20, 0.5, 2.0, 2, seed=38)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=5), seed=0)
        X = np.zeros((6, 2))
        X[3, 1] = bad
        for predict in (model.predict_proba_batch, model.tree_predictions_batch):
            with pytest.raises(ValueError, match=r"non-finite values, first rows \[3\]"):
                predict(X)

    def test_regression_constant_target(self):
        X = np.random.default_rng(4).normal(size=(20, 2))
        model = train_forest(X, np.full(20, 0.37), regressor_config(n_trees=5), seed=1)
        assert np.all(model.predict_regression_batch(X) == 0.37)

    def test_single_tree_exact_fit_returns_training_targets(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        config = ForestConfig(n_trees=1, min_leaf_size=1, mode="regression")
        model = train_forest(X, y, config, seed=2)
        # with unbounded depth and min_leaf 1, every distinct training point
        # ends alone in a leaf, so its own target comes back exactly
        seen = np.unique(_draws(model, 15)[0])
        preds = model.predict_regression_batch(X[seen])
        assert np.allclose(preds, y[seen], atol=1e-12)

    def test_mode_checks(self):
        data = gen_gaussian_clouds(20, 0.5, 2.0, 2, seed=1)
        clf = train_forest(data.features, data.labels, seed=0)
        with pytest.raises(ValueError):
            clf.predict_regression_batch(np.zeros((1, 2)))
        reg = train_forest(data.features, data.labels.astype(float),
                           regressor_config(n_trees=3), seed=0)
        with pytest.raises(ValueError):
            reg.predict_proba_batch(np.zeros((1, 2)))


class TestIntrospection:
    def test_oob_memorizing_single_class_pair(self):
        # both points share a label, so every excluding tree votes correctly
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([1, 1])
        model = train_forest(X, y, ForestConfig(n_trees=30), seed=2)
        assert _oob(model, X, y) == 1.0

    def test_oob_fallback_when_every_sample_is_in_every_bag(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        for seed in range(200):
            model = train_forest(X, y, ForestConfig(n_trees=1), seed=seed)
            if len(set(_draws(model, 2)[0].tolist())) == 2:
                assert _oob(model, X, y) == 1.0
                return
        pytest.fail("no seed produced a bootstrap covering both samples")

    @pytest.mark.parametrize("n, seed", [(2, 0), (5, 1), (23, 2 ** 63 + 5), (40, 2 ** 64 - 1)])
    def test_oob_matches_a_brute_force_vote(self, n, seed):
        # each tree votes on the rows its independently drawn bootstrap misses
        rng = np.random.default_rng(n)
        X = np.round(rng.normal(size=(n, 2)), 1)
        y = rng.integers(0, 2, n)
        model = train_forest(X, y, ForestConfig(n_trees=9), seed=seed)
        votes = _per_row(model, X) < 0.5
        bags = [set(_reference_bootstrap(derive_seed(seed, "tree", t), n).tolist())
                for t in range(model.n_trees)]
        correct = covered = 0
        for i in range(n):
            mine = [votes[t, i] for t in range(model.n_trees) if i not in bags[t]]
            if mine:
                covered += 1
                correct += int(2 * sum(mine) > len(mine)) == y[i]
        assert _oob(model, X, y) == (correct / covered if covered else 1.0)

    def test_oob_requires_the_exact_training_set(self):
        data = gen_gaussian_clouds(30, 0.5, 2.0, 2, seed=19)
        X, y = data.features, data.labels
        model = train_forest(X, y, ForestConfig(n_trees=4), seed=13)
        loaded = _json_round_trip(model)
        for forest in (model, loaded):
            for rows, labels in ((X[:-1], y[:-1]), (np.vstack([X, X[:1]]), np.append(y, 0)),
                                 (X, y[:-1])):
                with pytest.raises(ValueError, match="exact training set"):
                    _oob(forest, rows, labels)

    def test_oob_tracks_heldout_accuracy(self):
        data = gen_gaussian_clouds(1000, 0.5, 2.0, 2, seed=31)
        train, test = split(data, 0.5, seed=9)
        model = train_forest(train.features, train.labels, ForestConfig(n_trees=50),
                             seed=10)
        oob = _oob(model, train.features, train.labels)
        predicted = (model.predict_proba_batch(test.features) < 0.5).astype(int)
        heldout = float(np.mean(predicted == test.labels))
        assert abs(oob - heldout) <= 0.05

    def test_importances_of_stump_forest(self):
        # max_depth 0 forbids any split: importances are identically zero
        data = gen_gaussian_clouds(50, 0.5, 2.0, 3, seed=14)
        flat = train_forest(data.features, data.labels,
                            ForestConfig(n_trees=5, max_depth=0), seed=3)
        assert np.array_equal(flat.feature_importances(), np.zeros(3))
        assert flat.avg_tree_depth() == 0.0

    def test_single_informative_feature_takes_all_importance(self):
        rng = np.random.default_rng(15)
        X = np.zeros((40, 3))
        X[:, 2] = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(2, 3, 20)])
        y = np.array([0] * 20 + [1] * 20)
        model = train_forest(X, y, ForestConfig(n_trees=10, features_per_split=3),
                             seed=4)
        assert np.array_equal(model.feature_importances(), np.array([0.0, 0.0, 1.0]))

    def test_importances_sum_to_one_when_any_split_exists(self):
        data = gen_gaussian_clouds(100, 0.5, 2.0, 4, seed=16)
        model = train_forest(data.features, data.labels, seed=5)
        imp = model.feature_importances()
        assert np.all(imp >= 0)
        assert imp.sum() == pytest.approx(1.0, abs=1e-12)

    def test_avg_depth_of_stumps(self):
        # linearly separated classes and max_depth 1 force one split per
        # tree (40-draw bootstraps contain both classes in practice)
        rng = np.random.default_rng(22)
        X = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(9, 10, 20)])[:, None]
        y = np.array([0] * 20 + [1] * 20)
        model = train_forest(X, y, ForestConfig(n_trees=8, max_depth=1), seed=6)
        assert model.avg_tree_depth() == 1.0


def _leaf(value, count=1):
    return {"value": value, "count": count}


def _forest_doc(trees, mode="classification", n_features=2):
    return {"format": 1, "mode": mode,
            "config": {"n_trees": len(trees), "max_depth": None,
                       "min_leaf_size": 1, "features_per_split": 1,
                       "mode": mode},
            "seed": 0, "n_features": n_features,
            "importances": [0.0] * n_features, "trees": trees}


def _random_tree(rng, leaves, d, thresholds=4):
    """A tree document with ``leaves`` leaves, split points drawn from few values.

    Thresholds come from ``range(thresholds)``, so one tree often splits a
    feature twice at one threshold, nested or side by side.
    """
    if leaves == 1:
        return _leaf(float(rng.random()))
    left = int(rng.integers(1, leaves))
    return {"feature": int(rng.integers(d)), "threshold": float(rng.integers(thresholds)),
            "count": 2, "left": _random_tree(rng, left, d, thresholds),
            "right": _random_tree(rng, leaves - left, d, thresholds)}


def _reference_walk(doc, X):
    """Every tree of a forest document walked row by row: (n_trees, N)."""
    def walk(node, x):
        while "value" not in node:
            node = node["right"] if x[node["feature"]] > node["threshold"] else node["left"]
        return node["value"]

    return np.array([[walk(tree, x) for x in X] for tree in doc["trees"]])


class TestHandBuiltForests:
    def test_probability_is_mean_of_leaf_values(self):
        model = forest_from_doc(_forest_doc([_leaf(0.2), _leaf(0.6)]))
        assert model.predict_proba_batch(np.zeros((1, 2)))[0] == 0.4

    def test_adding_confident_tree_never_decreases_probability(self):
        two = forest_from_doc(_forest_doc([_leaf(0.2), _leaf(0.6)]))
        three = forest_from_doc(_forest_doc([_leaf(0.2), _leaf(0.6), _leaf(1.0)]))
        x = np.zeros((1, 2))
        assert three.predict_proba_batch(x)[0] >= two.predict_proba_batch(x)[0]

    def test_avg_depth_mixes_tree_depths(self):
        def chain(depth):
            node = _leaf(0.5)
            for _ in range(depth):
                node = {"feature": 0, "threshold": 0.0, "count": 2,
                        "left": _leaf(0.0), "right": node}
            return node

        model = forest_from_doc(_forest_doc([chain(2), chain(4)]))
        assert model.avg_tree_depth() == 3.0

    def test_prediction_matches_independent_recursive_walk(self):
        # re-walk the serialized trees point by point, independently of the
        # vectorized traversal
        def walk(node, x):
            if "value" in node:
                return node["value"]
            child = "left" if x[node["feature"]] <= node["threshold"] else "right"
            return walk(node[child], x)

        rng = np.random.default_rng(23)
        for mode in ("classification", "regression"):
            data = gen_gaussian_clouds(40, 0.5, 2.0, 3, seed=24)
            targets = data.labels if mode == "classification" else rng.normal(size=40)
            config = (ForestConfig(n_trees=7) if mode == "classification"
                      else regressor_config(n_trees=7, min_leaf_size=3))
            model = train_forest(data.features, targets, config, seed=25)
            doc = forest_to_doc(model)
            grid = rng.normal(size=(30, 3))
            batch = _per_row(model, grid)
            for t, tree in enumerate(doc["trees"]):
                expected = np.array([walk(tree, x) for x in grid])
                assert np.array_equal(batch[t], expected)

    @pytest.mark.parametrize("shape", ["leaves_and_chain", "chain_and_stumps", "stumps",
                                       "leaves"])
    def test_walk_matches_per_row_reference(self, shape):
        # single-leaf trees finish at the first step while a 30-deep chain
        # lets rows out one level at a time, so the walk drops finished
        # pairs several times; stumps all finish at their second step and
        # a forest of leaves at its first.  Half the rows sit exactly on a
        # threshold
        rng = np.random.default_rng(47)

        def chain(depth):
            node = _leaf(float(depth))
            for i in reversed(range(depth)):
                node = {"feature": i % 2, "threshold": float(i), "count": 2,
                        "left": _leaf(i + 0.5), "right": node}
            return node

        def stump():
            return {"feature": int(rng.integers(2)), "threshold": float(rng.integers(30)),
                    "count": 2, "left": _leaf(rng.random()), "right": _leaf(rng.random())}

        trees = {"leaves_and_chain": [_leaf(0.1)] * 6 + [chain(30), _leaf(0.7)],
                 "chain_and_stumps": [stump(), chain(30)] + [stump() for _ in range(5)],
                 "stumps": [stump() for _ in range(4)],
                 "leaves": [_leaf(0.2), _leaf(0.9)]}[shape]
        doc = _forest_doc(trees)
        model = forest_from_doc(doc)
        X = np.concatenate([np.repeat(np.arange(-1.0, 31.0, 0.5)[:, None], 2, axis=1),
                            rng.uniform(-1.0, 31.0, (64, 2)), rng.integers(0, 30, (64, 2))])
        expected = _reference_walk(doc, X)
        assert np.array_equal(model._walk(X), expected)
        assert np.array_equal(_per_row(model, X), expected)


class TestBitvectorReadOut:
    """The bitvector table reads every forest of at most 64 leaves per tree
    exactly as the walk does."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("max_depth", [None, 1, 3])
    def test_trained_forests_read_as_the_walk(self, d, max_depth):
        rng = np.random.default_rng(60 + d)
        X = np.round(rng.normal(size=(48, d)), 1)
        y = (X.sum(axis=1) + rng.normal(scale=0.5, size=48) > 0).astype(int)
        forests = [
            train_forest(X, y, ForestConfig(n_trees=20, max_depth=max_depth), seed=d),
            train_forest(X, rng.random(48),
                         regressor_config(n_trees=20, min_leaf_size=2, max_depth=max_depth),
                         seed=d),
        ]
        for model in forests:
            assert model._bitvectors is not None
            rows = np.concatenate([_threshold_grid_rows(model, rng, 200),
                                   rng.normal(size=(50, d))])
            assert np.array_equal(_per_row(model, rows), model._walk(rows))
            loaded = _json_round_trip(model)
            assert np.array_equal(_per_row(loaded, rows), model._walk(rows))

    @pytest.mark.parametrize("leaves", [63, 64, 65])
    def test_the_table_holds_trees_of_at_most_64_leaves(self, leaves, monkeypatch):
        rng = np.random.default_rng(leaves)
        doc = _forest_doc([_random_tree(rng, leaves, 3)]
                          + [_random_tree(rng, int(n), 3) for n in rng.integers(1, 30, 6)],
                          n_features=3)
        model = forest_from_doc(doc)
        assert (model._bitvectors is None) == (leaves > 64)
        walked = []
        walk = ForestModel._walk

        def counting_walk(model, X):
            walked.append(len(X))
            return walk(model, X)

        monkeypatch.setattr(ForestModel, "_walk", counting_walk)
        # rows sit on the thresholds 0-3, halfway between them or beyond them
        X = rng.choice(np.arange(-1.0, 4.5, 0.5), size=(300, 3))
        assert np.array_equal(_per_row(model, X), _reference_walk(doc, X))
        assert bool(walked) == (leaves > 64)

    def test_forests_of_single_leaves(self):
        doc = _forest_doc([_leaf(0.25), _leaf(0.5), _leaf(1.0)])
        model = forest_from_doc(doc)
        assert model._bitvectors is not None
        X = np.random.default_rng(61).random((7, 2))
        assert np.array_equal(_per_row(model, X), _reference_walk(doc, X))

    def test_repeated_thresholds_within_a_tree(self):
        # feature 0 at 1.0 splits the root, again in its left subtree (whose
        # right side no row reaches) and in its right subtree, so three
        # masks share one word of the table
        def node(f, cut, left, right):
            return {"feature": f, "threshold": cut, "count": 2, "left": left, "right": right}

        tree = node(0, 1.0, node(0, 1.0, node(1, 1.0, _leaf(0.1), _leaf(0.2)), _leaf(0.3)),
                    node(1, 1.0, node(0, 1.0, _leaf(0.4), _leaf(0.5)), _leaf(0.6)))
        rng = np.random.default_rng(62)
        doc = _forest_doc([tree] + [_random_tree(rng, 40, 2, thresholds=2) for _ in range(5)])
        model = forest_from_doc(doc)
        X = rng.choice([0.0, 1.0, np.nextafter(1.0, 2.0), 2.0], size=(200, 2))
        assert np.array_equal(_per_row(model, X), _reference_walk(doc, X))

    def test_unpickled_forests_read_as_the_walk(self):
        data = gen_gaussian_clouds(40, 0.5, 1.0, 2, seed=63)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=30), seed=64)
        X = _threshold_grid_rows(model, np.random.default_rng(65), 300)
        before = _per_row(model, X)
        assert np.array_equal(_per_row(pickle.loads(pickle.dumps(model)), X), before)
        assert np.array_equal(before, model._walk(X))


def _json_round_trip(model):
    return forest_from_doc(json.loads(json.dumps(forest_to_doc(model))))


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        data = gen_gaussian_clouds(80, 0.5, 2.0, 2, seed=17)
        model = train_forest(data.features, data.labels, seed=11)
        loaded = _json_round_trip(model)
        grid = np.random.default_rng(7).normal(size=(40, 2))
        assert np.array_equal(model.predict_proba_batch(grid),
                              loaded.predict_proba_batch(grid))
        assert np.array_equal(model.feature_importances(),
                              loaded.feature_importances())
        assert loaded.avg_tree_depth() == model.avg_tree_depth()

    @pytest.mark.parametrize("mode", ["classification", "regression"])
    def test_round_trip_keeps_the_level_ordered_layout(self, mode):
        data = gen_gaussian_clouds(60, 0.5, 1.0, 3, seed=21)
        targets = (data.labels if mode == "classification"
                   else np.random.default_rng(22).random(60))
        config = (ForestConfig(n_trees=6) if mode == "classification"
                  else regressor_config(n_trees=6, min_leaf_size=3))
        model = train_forest(data.features, targets, config, seed=15)
        loaded = _json_round_trip(model)
        assert np.array_equal(loaded.feature, model.feature)
        assert np.array_equal(loaded.threshold, model.threshold, equal_nan=True)
        assert np.array_equal(loaded.left, model.left)
        assert np.array_equal(loaded.count, model.count)
        leaf = model.feature < 0
        assert np.array_equal(loaded.value[leaf], model.value[leaf])

    def test_round_trip_is_stable_bytes(self):
        data = gen_gaussian_clouds(30, 0.5, 2.0, 2, seed=18)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=4),
                             seed=12)
        a = json.dumps(forest_to_doc(model), sort_keys=True)
        b = json.dumps(forest_to_doc(_json_round_trip(model)), sort_keys=True)
        assert a == b

    def test_loaded_model_keeps_its_oob(self):
        data = gen_gaussian_clouds(30, 0.5, 2.0, 2, seed=19)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=4),
                             seed=13)
        assert _oob(_json_round_trip(model), data.features, data.labels) == \
            _oob(model, data.features, data.labels)

    def test_read_out_leaves_the_pickle_unchanged(self):
        # the thresholds, the walk's nodes and the bitvector table are
        # rebuilt after unpickling, so a read forest pickles as a fresh one,
        # whichever read-out serves it: a tree of 65 leaves sends the second
        # forest down the walk
        data = gen_gaussian_clouds(60, 0.5, 1.0, 2, seed=20)
        table = train_forest(data.features, data.labels, ForestConfig(n_trees=20), seed=14)
        walked = forest_from_doc(_forest_doc(
            [_random_tree(np.random.default_rng(20), 65, 2), _leaf(0.5)]))
        cached = {k for k, v in vars(ForestModel).items() if isinstance(v, cached_property)}
        for model in (table, walked):
            fresh = pickle.dumps(model)
            model.predict_proba_batch(data.features)
            model._walk(data.features)
            assert (model._bitvectors is None) == (model is walked)
            assert set(vars(model)) - set(vars(pickle.loads(fresh))) == cached
            assert pickle.dumps(model) == fresh

    def test_pickle_size_does_not_depend_on_the_training_rows(self):
        # constant rows give single-leaf trees, so only the row count differs
        config = ForestConfig(n_trees=50)
        small, large = (train_forest(np.zeros((n, 2)), np.zeros(n), config, seed=3)
                        for n in (100, 10_000))
        assert len(pickle.dumps(large)) == len(pickle.dumps(small))

    def test_version_check(self, tmp_path):
        doc = {"format": 99}
        with pytest.raises(ValueError):
            forest_from_doc(doc)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d["trees"][0].update(feature=2), "feature index"),
        (lambda d: d["trees"][0].update(feature=-1), "feature index"),
        (lambda d: d["trees"][0].update(threshold=float("nan")), "finite"),
        (lambda d: d["trees"][0]["left"].update(value=float("inf")), "finite"),
        (lambda d: d["trees"][0]["right"].update(count=-1), "non-negative"),
        (lambda d: d.update(importances=[0.0]), "importances"),
        (lambda d: d.update(trees=d["trees"][:1]), "trees"),
        (lambda d: d["trees"][0].pop("left"), "missing field"),
        (lambda d: d["trees"][0].update(value=0.5), "unexpected keys"),
        (lambda d: d["trees"][1].update(feature=0), "unexpected keys"),
        (lambda d: d.update(importance=[0.0, 0.0]), "unknown keys.*importance"),
    ], ids=["feature_too_large", "feature_negative", "nan_threshold", "inf_leaf",
            "negative_count", "importances_length", "tree_count", "missing_child",
            "split_with_value", "leaf_with_feature", "extra_top_level_key"])
    def test_malformed_document_rejected(self, corrupt, message):
        def doc():
            stump = {"feature": 1, "threshold": 0.5, "count": 2,
                     "left": _leaf(0.0), "right": _leaf(1.0)}
            return _forest_doc([stump, _leaf(0.5)])

        forest_from_doc(doc())
        bad = doc()
        corrupt(bad)
        with pytest.raises(ValueError, match=message):
            forest_from_doc(bad)

    def test_doc_fields(self):
        data = gen_gaussian_clouds(30, 0.5, 2.0, 2, seed=20)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=3),
                             seed=14)
        doc = forest_to_doc(model)
        assert doc["format"] == 1
        assert doc["mode"] == "classification"
        assert len(doc["trees"]) == 3
        json.dumps(doc)  # must be serializable as-is

    def test_config_is_written_from_the_schema(self, monkeypatch):
        data = gen_gaussian_clouds(30, 0.5, 2.0, 2, seed=21)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=3), seed=15)
        assert list(forest_to_doc(model)["config"]) == list(CONFIG_SCHEMA)
        # the schema is the only list of the fields: one dropped from it
        # drops out of the document too
        monkeypatch.setattr(forest, "CONFIG_SCHEMA",
                            {k: v for k, v in CONFIG_SCHEMA.items() if k != "max_depth"})
        assert "max_depth" not in forest_to_doc(model)["config"]
