"""Learning-state featurization: values, ordering, and reusability."""

import numpy as np
import pytest

from lalearn.data import PoolState, gen_gaussian_clouds, init_cold_start
from lalearn.features import FEATURE_NAMES, candidate_states, classifier_state
from lalearn.forest import ForestConfig, train_forest


def _state(model, pool, data):
    return classifier_state(model, pool, data)[0]


def _trained_state(n=40, n_labeled=6, seed=0, n_trees=10):
    data = gen_gaussian_clouds(n, 0.5, 2.0, 2, seed=seed)
    pool = PoolState(list(range(n_labeled)), np.arange(n_labeled, n))
    model = train_forest(data.features[pool.labeled], data.labels[pool.labeled],
                         ForestConfig(n_trees=n_trees), seed=seed + 1)
    return data, pool, model


def test_schema_is_frozen():
    assert len(FEATURE_NAMES) == 7
    assert FEATURE_NAMES[-1] == "predicted_probability_class0"
    assert FEATURE_NAMES[5] == "labeled_size"


class TestClassifierState:
    def test_cold_start_proportion_and_size(self):
        data = gen_gaussian_clouds(30, 0.5, 2.0, 2, seed=2)
        pool = init_cold_start(data, seed=3)
        model = train_forest(data.features[pool.labeled], data.labels[pool.labeled], seed=4)
        phi = _state(model, pool, data)
        assert phi[0] == 0.5  # one labeled point per class
        assert phi[5] == 2.0

    def test_single_tree_forest_has_zero_variance_on_pool(self):
        data, pool, model = _trained_state(n_trees=1)
        phi = _state(model, pool, data)
        assert phi[3] == 0.0

    def test_importance_variance_for_single_informative_feature(self):
        # importances (1, 0) have population variance 0.25
        from lalearn.data import Dataset
        X = np.zeros((20, 2))
        X[:, 0] = np.linspace(0, 1, 20)
        y = (X[:, 0] > 0.5).astype(int)
        data = Dataset(X, y)
        pool = PoolState(list(range(19)), [19])
        model = train_forest(X[:19], y[:19],
                             ForestConfig(n_trees=5, features_per_split=2), seed=1)
        assert np.array_equal(model.feature_importances(), [1.0, 0.0])
        phi = _state(model, pool, data)
        assert phi[2] == 0.25

    def test_empty_pool_rejected(self):
        data, pool, model = _trained_state()
        full = PoolState(list(range(len(data))), [])
        with pytest.raises(ValueError, match="stop"):
            _state(model, full, data)

    def test_state_is_reproducible(self):
        data, pool, model = _trained_state(seed=6)
        a = _state(model, pool, data)
        b = _state(model, pool, data)
        assert np.array_equal(a, b)

    def test_state_is_finite_on_reachable_pools(self):
        for seed in range(5):
            data, pool, model = _trained_state(n=30, n_labeled=2 + seed, seed=seed)
            assert np.all(np.isfinite(_state(model, pool, data)))


class TestAssembly:
    def test_candidate_feature_is_last(self):
        phi = np.arange(6, dtype=float)
        xi = candidate_states(phi, [0.77])
        assert xi.shape == (1, 7)
        assert xi[0, 6] == 0.77
        assert np.array_equal(xi[0, :6], phi)

    def test_round_trips_through_json(self):
        import json
        xi = candidate_states(np.linspace(0, 1, 6), [0.3])[0]
        back = np.asarray(json.loads(json.dumps(list(xi))))
        assert np.array_equal(back, xi)

    def test_batch_assembly_matches_scalar(self):
        phi = np.linspace(0, 1, 6)
        psis = np.array([0.2, 0.5, 0.9])
        batch = candidate_states(phi, psis)
        assert batch.shape == (3, 7)
        for i, psi in enumerate(psis):
            assert np.array_equal(batch[i], np.concatenate([phi, [psi]]))


def test_phi_reuse_equals_recomputation():
    # computing the classifier state once per iteration and pairing it with
    # every candidate must equal recomputing it per candidate
    data, pool, model = _trained_state(seed=8)
    phi_once = _state(model, pool, data)
    for x in data.features[pool.unlabeled[:4]]:
        xi = candidate_states(_state(model, pool, data),
                              model.predict_proba_batch(x[None, :]))
        assert np.array_equal(xi[0, :6], phi_once)
