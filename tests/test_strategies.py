"""Selection rules: entropy, uncertainty, learned selection, persistence."""

import pickle

import numpy as np
import pytest

from lalearn.data import Dataset, PoolState, gen_gaussian_clouds
from lalearn.features import FEATURE_NAMES, candidate_states, classifier_state
from lalearn.forest import ForestConfig, forest_to_doc, regressor_config, train_forest
from lalearn.seeding import rng_for
from lalearn.strategies import (LalStrategy, RandomStrategy, UncertaintyStrategy,
                                entropy, load_strategy, save_strategy,
                                select_lal, select_uncertainty, strategy_from_doc)


def _toy_problem(n=50, n_labeled=8, seed=0):
    data = gen_gaussian_clouds(n, 0.5, 2.0, 2, seed=seed)
    pool = PoolState(list(range(n_labeled)), np.arange(n_labeled, n))
    model = train_forest(data.features[pool.labeled], data.labels[pool.labeled],
                         ForestConfig(n_trees=15), seed=seed + 1)
    return data, pool, model


def _identity_regressor(seed=3):
    """A regressor trained to reproduce the candidate-probability feature."""
    rng = np.random.default_rng(seed)
    states = rng.random((400, 7))
    targets = states[:, 6]
    config = regressor_config(n_trees=1, min_leaf_size=1)
    return train_forest(states, targets, config, seed=seed)


class TestEntropy:
    def test_peak_and_edges(self):
        assert entropy(0.5) == 1.0
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_direct_evaluation(self):
        expected = -(0.8 * np.log2(0.8) + 0.2 * np.log2(0.2))
        assert entropy(0.8) == pytest.approx(expected, abs=1e-12)
        assert entropy(0.8) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_symmetry(self):
        p = np.linspace(0, 1, 21)
        assert np.allclose(entropy(p), entropy(1 - p), atol=1e-12)


class TestUncertainty:
    def test_picks_probability_nearest_half(self):
        data, pool, model = _toy_problem(seed=1)
        chosen = select_uncertainty(model, pool, data)
        p = model.predict_proba_batch(data.features[pool.unlabeled])
        assert chosen == pool.unlabeled[int(np.argmin(np.abs(p - 0.5)))]

    def test_equals_argmin_distance_to_half_on_random_candidates(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            p = np.round(rng.random(15), 2)
            by_entropy = int(np.argmax(entropy(p)))
            by_distance = int(np.argmin(np.abs(p - 0.5)))
            assert entropy(p[by_entropy]) == entropy(p[by_distance])

    def test_relabeling_symmetry(self):
        # flipping class labels flips p to 1-p and must not change selection
        data, pool, model = _toy_problem(seed=3)
        flipped = Dataset(data.features, 1 - data.labels, data.name)
        model_flipped = train_forest(flipped.features[pool.labeled],
                                     flipped.labels[pool.labeled],
                                     ForestConfig(n_trees=15), seed=4)
        p = model.predict_proba_batch(data.features[pool.unlabeled])
        pf = model_flipped.predict_proba_batch(flipped.features[pool.unlabeled])
        assert np.allclose(p, 1 - pf, atol=1e-12)
        assert select_uncertainty(model, pool, data) == \
            select_uncertainty(model_flipped, pool, flipped)

    def test_symmetric_tie_goes_to_smallest_index(self):
        # p = 0.3 and p = 0.7 have equal entropy; the smaller dataset index
        # wins regardless of which candidate carries which probability
        from lalearn.forest import forest_from_doc
        doc = {"format": 1, "mode": "classification",
               "config": {"n_trees": 1, "max_depth": None, "min_leaf_size": 1,
                          "features_per_split": 1, "mode": "classification"},
               "seed": 0, "n_features": 1, "importances": [1.0],
               "trees": [{"feature": 0, "threshold": 0.5, "count": 2,
                          "left": {"value": 0.3, "count": 1},
                          "right": {"value": 0.7, "count": 1}}]}
        model = forest_from_doc(doc)
        data = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
        pool = PoolState([], np.array([0, 1]))
        assert select_uncertainty(model, pool, data) == 0
        flipped = Dataset(np.array([[1.0], [0.0]]), np.array([0, 1]))
        assert select_uncertainty(model, pool, flipped) == 0

    def test_single_candidate(self):
        data, pool, model = _toy_problem(seed=5)
        lone = PoolState(sorted(set(range(len(data))) - {17}), [17])
        model = train_forest(data.features[lone.labeled], data.labels[lone.labeled], seed=6)
        assert select_uncertainty(model, lone, data) == 17


class TestLalSelection:
    def test_constant_regressor_ties_to_smallest_index(self):
        data, pool, model = _toy_problem(seed=7)
        states = np.random.default_rng(8).random((50, 7))
        constant = train_forest(states, np.zeros(50), regressor_config(n_trees=3),
                                seed=9)
        assert select_lal(constant, model, pool, data) == int(pool.unlabeled[0])

    def test_identity_regressor_selects_max_probability(self):
        data, pool, model = _toy_problem(seed=10)
        regressor = _identity_regressor()
        chosen = select_lal(regressor, model, pool, data)
        phi, p = classifier_state(model, pool, data)
        scores = np.array([
            regressor.predict_regression_batch(np.concatenate([phi, [pi]])[None, :])[0]
            for pi in p])
        assert chosen == int(pool.unlabeled[int(np.argmax(scores))])

    def test_selection_invariant_under_monotone_leaf_transform(self):
        data, pool, model = _toy_problem(seed=11)
        regressor = _identity_regressor(seed=12)
        before = select_lal(regressor, model, pool, data)
        regressor.value[:] = np.where(np.isnan(regressor.value), np.nan,
                                      3.0 * regressor.value + 11.0)
        assert select_lal(regressor, model, pool, data) == before

    def test_classification_regressor_rejected(self):
        data, pool, model = _toy_problem(seed=13)
        with pytest.raises(ValueError):
            select_lal(model, model, pool, data)

    def test_lal_cost_is_one_state_plus_pool_sweep(self, monkeypatch):
        import lalearn.strategies as strategies_module
        data, pool, model = _toy_problem(seed=14)
        regressor = _identity_regressor(seed=15)
        state_calls = []
        batch_rows = []
        original_state = strategies_module.classifier_state
        monkeypatch.setattr(strategies_module, "classifier_state",
                            lambda *a, **k: state_calls.append(1) or original_state(*a, **k))
        original_batch = type(regressor).predict_regression_batch
        monkeypatch.setattr(type(regressor), "predict_regression_batch",
                            lambda self, X: batch_rows.append(len(X)) or original_batch(self, X))
        select_lal(regressor, model, pool, data)
        assert state_calls == [1]
        p = model.predict_proba_batch(data.features[pool.unlabeled])
        assert batch_rows == [len(np.unique(p))]

    @pytest.mark.parametrize("n_rows", [1, 2, 7])
    def test_distinct_states_scored_once(self, n_rows):
        # a pool of repeated feature rows repeats p0; scoring each distinct
        # state once must pick what a full-pool sweep picks, bit for bit
        data = gen_gaussian_clouds(50, 0.5, 0.5, 2, seed=20)
        rng = np.random.default_rng(21)
        n_labeled = 8
        labeled = np.concatenate([np.flatnonzero(data.labels == c)[:n_labeled // 2]
                                  for c in (0, 1)])
        candidates = rng.choice(np.setdiff1d(np.arange(50), labeled), n_rows,
                                replace=False)
        copies = rng.integers(0, n_rows, 60)
        features = np.vstack([data.features[labeled], data.features[candidates][copies]])
        labels = np.concatenate([data.labels[labeled], data.labels[candidates][copies]])
        repeated = Dataset(features, labels)
        pool = PoolState(list(range(n_labeled)), np.arange(n_labeled, len(features)))
        model = train_forest(features[:n_labeled], labels[:n_labeled],
                             ForestConfig(n_trees=15), seed=22)
        states = rng.random((600, 7))
        regressor = train_forest(states, rng.random(600),
                                 regressor_config(n_trees=50, min_leaf_size=5), seed=23)
        phi, p = classifier_state(model, pool, repeated)
        assert np.array_equal(p, model.predict_proba_batch(features[pool.unlabeled]))
        full = regressor.predict_regression_batch(candidate_states(phi, p))
        chosen = select_lal(regressor, model, pool, repeated)
        assert chosen == int(pool.unlabeled[int(np.argmax(full))])
        distinct, inverse = np.unique(p, return_inverse=True)
        scores = regressor.predict_regression_batch(candidate_states(phi, distinct))
        assert np.array_equal(scores[inverse], full)


class TestSelectInterface:
    def test_all_strategies_return_pool_members(self):
        data, pool, model = _toy_problem(seed=16)
        strategies = [RandomStrategy(), UncertaintyStrategy(),
                      LalStrategy(_identity_regressor(seed=17))]
        for strategy in strategies:
            idx = strategy.select(model, pool, data, rng_for(1, "sel"))
            assert idx in set(pool.unlabeled.tolist())

    def test_random_is_reproducible(self):
        data, pool, model = _toy_problem(seed=18)
        a = RandomStrategy().select(model, pool, data, rng_for(5))
        b = RandomStrategy().select(model, pool, data, rng_for(5))
        assert a == b

    def test_deterministic_strategies_repeat(self):
        data, pool, model = _toy_problem(seed=19)
        s = UncertaintyStrategy()
        assert s.select(model, pool, data) == s.select(model, pool, data)

    def test_empty_pool_rejected(self):
        data, pool, model = _toy_problem(seed=20)
        empty = PoolState(list(range(len(data))), [])
        for strategy in (RandomStrategy(), UncertaintyStrategy(),
                         LalStrategy(_identity_regressor(seed=21))):
            with pytest.raises(ValueError):
                strategy.select(model, empty, data, rng_for(0))


class TestPersistence:
    def test_lal_round_trip_selects_identically(self, tmp_path):
        regressor = _identity_regressor(seed=23)
        strategy = LalStrategy(regressor, provenance="iterative",
                               training_metadata={"rows": 400})
        path = tmp_path / "lal.json"
        save_strategy(strategy, path)
        loaded = load_strategy(path)
        assert loaded.provenance == "iterative"
        assert loaded.name == "lal_iterative"
        rng = np.random.default_rng(24)
        for trial in range(100):
            data, pool, model = _toy_problem(n=30, n_labeled=int(rng.integers(4, 10)),
                                             seed=100 + trial)
            assert (strategy.select(model, pool, data)
                    == loaded.select(model, pool, data))

    def test_selection_leaves_the_pickle_unchanged(self):
        # a strategy shipped to workers carries its node table, not the
        # read-out state its selections cache
        rng = np.random.default_rng(25)
        states = rng.random((400, 7))
        regressor = train_forest(states, states[:, 6],
                                 regressor_config(n_trees=20, min_leaf_size=20), seed=26)
        strategy = LalStrategy(regressor, provenance="iterative")
        fresh = pickle.dumps(strategy)
        data, pool, model = _toy_problem(n=30, seed=27)
        strategy.select(model, pool, data)
        assert regressor._bitvectors is not None
        assert pickle.dumps(strategy) == fresh

    def test_classification_forest_rejected_as_regressor(self):
        data, pool, model = _toy_problem(seed=25)
        doc = {
            "format": 1, "kind": "lal", "feature_schema": list(FEATURE_NAMES),
            "provenance": "independent", "training_metadata": {},
            "regressor": forest_to_doc(model),
        }
        with pytest.raises(ValueError, match="regression"):
            strategy_from_doc(doc)

    def test_regressor_must_take_the_learning_state(self):
        states = np.random.default_rng(28).random((40, 6))
        six = train_forest(states, states[:, 5], regressor_config(n_trees=1), seed=29)
        with pytest.raises(ValueError, match="features"):
            LalStrategy(six)

    def test_schema_mismatch_rejected(self):
        regressor = _identity_regressor(seed=26)
        schema = list(FEATURE_NAMES)
        schema[0] = "something_else"
        doc = {
            "format": 1, "kind": "lal", "feature_schema": schema,
            "provenance": "independent", "training_metadata": {},
            "regressor": forest_to_doc(regressor),
        }
        with pytest.raises(ValueError, match="schema"):
            strategy_from_doc(doc)

    @pytest.mark.parametrize("field", ["regressor", "feature_schema", "provenance"])
    def test_missing_field_is_named(self, field):
        doc = LalStrategy(_identity_regressor(seed=27)).to_doc()
        del doc[field]
        with pytest.raises(ValueError, match=field):
            strategy_from_doc(doc)

    @pytest.mark.parametrize("make", [lambda: LalStrategy(_identity_regressor(seed=27))],
                             ids=["lal"])
    def test_unknown_key_is_named(self, make):
        doc = make().to_doc()
        strategy_from_doc(doc)
        doc["training_metdata"] = {"rows": 400}
        with pytest.raises(ValueError, match="training_metdata"):
            strategy_from_doc(doc)

    def test_version_and_corruption_errors(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            strategy_from_doc({"format": 2, "kind": "random"})
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            load_strategy(bad)
        with pytest.raises(FileNotFoundError):
            load_strategy(tmp_path / "missing.json")
