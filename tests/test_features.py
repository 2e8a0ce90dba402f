"""Learning-state featurization: values, ordering, and reusability."""

import numpy as np
import pytest

from lalearn.data import (Dataset, PoolState, gen_gaussian_clouds, init_cold_start,
                          init_warm_start)
from lalearn.features import FEATURE_NAMES, candidate_states, classifier_state
from lalearn.forest import (ForestConfig, ForestModel, bootstrap_matrix, train_forest,
                            tree_seeds)


def _state(model, pool, data):
    return classifier_state(model, pool, data)[0]


def _fit(data, pool, config, seed):
    return train_forest(data.features[pool.labeled], data.labels[pool.labeled], config, seed)


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

    def test_one_read_per_state(self, monkeypatch):
        # one read of the whole dataset; the out-of-bag votes reuse it
        data, pool, model = _trained_state()
        reads, during_oob = [], []
        read, oob = ForestModel.tree_predictions_batch, ForestModel.oob_accuracy

        def counted_read(self, X):
            reads.append(len(X))
            return read(self, X)

        def counted_oob(self, *args):
            before = len(reads)
            result = oob(self, *args)
            during_oob.append(len(reads) - before)
            return result

        monkeypatch.setattr(ForestModel, "tree_predictions_batch", counted_read)
        monkeypatch.setattr(ForestModel, "oob_accuracy", counted_oob)
        classifier_state(model, pool, data)
        assert reads == [len(data)]
        assert during_oob == [0]

    def test_state_is_finite_on_reachable_pools(self):
        for seed in range(5):
            data, pool, model = _trained_state(n=30, n_labeled=2 + seed, seed=seed)
            assert np.all(np.isfinite(_state(model, pool, data)))


class TestPerCellReduction:
    """``classifier_state`` reduces the (T, C) cell matrix, not the (T, N) row matrix.

    The pool variance and every p0 must keep the bits of the per-row
    formula, trees summed in order, with many cells and with one cell
    holding many rows (which numpy would sum pairwise as a lone column);
    a single row must get the same bits as in a larger pool.  The whole
    state must match a reference that reads the labeled rows and the pool
    separately, as ``classifier_state`` once did.
    """

    @staticmethod
    def _assert_per_row_bits(model, pool, data):
        # a two-read reference: the labeled rows read for a brute-force
        # out-of-bag vote, the pool read for the per-row formula
        labels = data.labels[pool.labeled]
        leaf, cell = model.tree_predictions_batch(data.features[pool.labeled])
        votes = np.take(leaf, cell, axis=1) < 0.5
        bags = bootstrap_matrix(tree_seeds(model.seed, model.n_trees), len(labels))
        correct = covered = 0
        for i, label in enumerate(labels):
            mine = [votes[t, i] for t in range(model.n_trees) if i not in bags[t]]
            if mine:
                covered += 1
                correct += int(2 * sum(mine) > len(mine)) == label
        leaf, cell = model.tree_predictions_batch(data.features[pool.unlabeled])
        per_row = np.take(leaf, cell, axis=1)
        in_order = np.cumsum(per_row, axis=0)[-1] / model.n_trees
        spread = np.cumsum((per_row - in_order) ** 2, axis=0)[-1] / model.n_trees
        expected = np.array([np.mean(labels == 0), correct / covered if covered else 1.0,
                             model.feature_importances().var(), spread.mean(),
                             model.avg_tree_depth(), pool.n_labeled], dtype=np.float64)
        phi, p0 = classifier_state(model, pool, data)
        assert phi.tobytes() == expected.tobytes()
        assert p0.tobytes() == in_order.tobytes()

    @staticmethod
    def _cells(model, pool, data):
        return len(np.unique(model.tree_predictions_batch(data.features[pool.unlabeled])[1]))

    def test_many_cells(self):
        for seed in range(10):
            data = gen_gaussian_clouds(80, 0.5, 2.0, 2, seed=seed)
            pool = init_warm_start(data, 10, seed)
            model = _fit(data, pool, ForestConfig(n_trees=50), seed)
            assert self._cells(model, pool, data) >= 2
            self._assert_per_row_bits(model, pool, data)

    def test_one_cell_of_many_rows(self):
        # stumps put every row in one cell; 37 labels make leaf values
        # whose pairwise and in-order sums differ
        for seed in range(10):
            data = gen_gaussian_clouds(60, 0.5, 0.5, 2, seed=seed)
            pool = init_warm_start(data, 37, seed)
            model = _fit(data, pool, ForestConfig(n_trees=50, max_depth=0), seed)
            assert self._cells(model, pool, data) == 1
            self._assert_per_row_bits(model, pool, data)

    def test_one_row(self):
        # a lone unlabeled row gets the bits it gets beside a copy of
        # itself, a two-row pool with one cell
        for seed in range(10):
            data = gen_gaussian_clouds(40, 0.5, 0.5, 2, seed=seed)
            pool = init_warm_start(data, 39, seed)
            row = int(pool.unlabeled[0])
            doubled = Dataset(np.vstack([data.features, data.features[row]]),
                              np.append(data.labels, data.labels[row]))
            pair = PoolState(pool.labeled, [row, len(data)])
            for config in (ForestConfig(n_trees=50), ForestConfig(n_trees=50, max_depth=0)):
                model = _fit(data, pool, config, seed)
                assert self._cells(model, pair, doubled) == 1
                self._assert_per_row_bits(model, pool, data)
                self._assert_per_row_bits(model, pair, doubled)
                phi, p0 = classifier_state(model, pool, data)
                phi2, p02 = classifier_state(model, pair, doubled)
                assert phi.tobytes() == phi2.tobytes()
                assert p02.tobytes() == np.repeat(p0, 2).tobytes()


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
