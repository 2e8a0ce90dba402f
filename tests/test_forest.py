"""Forest training, prediction, introspection, and serialization."""

import json
import math

import numpy as np
import pytest

from lalearn.data import gen_gaussian_clouds, split
from lalearn.forest import (ForestConfig, best_split, forest_from_doc,
                            forest_to_doc, regressor_config, train_forest)
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
            assert np.array_equal(model.bootstrap[t], ref_boot)
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
            got = best_split(x, y, "gini")
            expected = _exhaustive_best(x, y, "gini")
            assert got == expected

    def test_variance_criterion_against_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            x = np.round(rng.normal(size=n), 1)
            y = rng.normal(size=n)
            got = best_split(x, y, "variance")
            expected = _exhaustive_best(x, y, "variance")
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


def _exhaustive_best(x, y, criterion):
    candidates = []
    for thr, gain in _scan_feature(np.asarray(x, float), np.asarray(y, float),
                                   criterion, 1):
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
        boot_y = y[model.bootstrap].astype(float)
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


class TestPrediction:
    def test_proba_is_mean_of_tree_predictions(self):
        data = gen_gaussian_clouds(80, 0.5, 2.0, 2, seed=12)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=13),
                             seed=5)
        x = np.array([[0.3, -0.2]])
        per_tree = model.tree_predictions_batch(x)
        assert per_tree.shape == (13, 1)
        assert model.predict_proba_batch(x)[0] == per_tree[:, 0].mean()

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
        seen = np.unique(model.bootstrap[0])
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
        assert model.oob_accuracy(X, y) == 1.0

    def test_oob_fallback_when_every_sample_is_in_every_bag(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        for seed in range(200):
            model = train_forest(X, y, ForestConfig(n_trees=1), seed=seed)
            if len(set(model.bootstrap[0].tolist())) == 2:
                assert model.oob_accuracy(X, y) == 1.0
                return
        pytest.fail("no seed produced a bootstrap covering both samples")

    def test_oob_tracks_heldout_accuracy(self):
        data = gen_gaussian_clouds(1000, 0.5, 2.0, 2, seed=31)
        train, test = split(data, 0.5, seed=9)
        model = train_forest(train.features, train.labels, ForestConfig(n_trees=50),
                             seed=10)
        oob = model.oob_accuracy(train.features, train.labels)
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
            batch = model._leaf_values(grid)
            for t, tree in enumerate(doc["trees"]):
                expected = np.array([walk(tree, x) for x in grid])
                assert np.array_equal(batch[t], expected)


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

    def test_loaded_model_has_no_oob(self):
        data = gen_gaussian_clouds(30, 0.5, 2.0, 2, seed=19)
        model = train_forest(data.features, data.labels, ForestConfig(n_trees=4),
                             seed=13)
        with pytest.raises(ValueError):
            _json_round_trip(model).oob_accuracy(data.features, data.labels)

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
    ], ids=["feature_too_large", "feature_negative", "nan_threshold", "inf_leaf",
            "negative_count", "importances_length", "tree_count", "missing_child"])
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
