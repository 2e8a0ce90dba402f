"""Monte-Carlo strategy learning: simulation, bookkeeping, both build methods."""

import numpy as np
import pytest

from lalearn.data import PoolState, gen_gaussian_clouds, init_warm_start
from lalearn import training
from lalearn.forest import ForestConfig, regressor_config, train_forest
from lalearn.seeding import derive_seed
from lalearn.training import (MonteCarloConfig, RegressionSet, StrategyGrownSplit,
                              build_lal, cold_start_data, data_monte_carlo)

FAST_CLF = ForestConfig(n_trees=10)
FAST_REG = regressor_config(n_trees=10)


def _fast_config(size_min=2, size_max=4, initializations=2, candidates=3, seed=0):
    return MonteCarloConfig(size_min=size_min, size_max=size_max,
                            initializations=initializations, candidates=candidates,
                            classifier=FAST_CLF, regressor=FAST_REG, seed=seed)


def _split(train, labeled_size, seed):
    """The random labeled set that a build gives the cell with this seed."""
    return init_warm_start(train, labeled_size, derive_seed(seed, "split"))


@pytest.fixture(scope="module")
def small_sets():
    train = gen_gaussian_clouds(120, 0.5, 2.0, 2, seed=50)
    test = gen_gaussian_clouds(150, 0.5, 2.0, 2, seed=51)
    return train, test


class TestMonteCarloConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(size_min=1)
        with pytest.raises(ValueError):
            MonteCarloConfig(size_min=10, size_max=5)
        with pytest.raises(ValueError):
            MonteCarloConfig(initializations=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(test_loss="nope")
        with pytest.raises(ValueError):
            MonteCarloConfig(regressor=ForestConfig())  # classification mode

    def test_size_count(self):
        assert MonteCarloConfig(size_min=2, size_max=32).n_sizes == 31

    @pytest.mark.parametrize("field, value", [
        ("initializations", 2.5), ("candidates", True), ("size_max", 3.5), ("seed", 1.5),
        ("test_loss", 1), ("test_loss", "f1"),
    ])
    def test_rejects_what_a_build_config_may_not_hold(self, field, value):
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            MonteCarloConfig(**{field: value})

    def test_accepts_numpy_integers(self):
        config = MonteCarloConfig(size_min=np.int64(2), size_max=np.int32(4),
                                  initializations=np.uint8(2), candidates=np.int64(3),
                                  seed=np.int64(7))
        assert config.n_sizes == 3

    def test_small_numpy_integers_build_without_wrapping(self):
        # held as np.int8, size_max + 1 wraps to -128 and leaves no size to simulate
        config = MonteCarloConfig(size_min=np.int8(126), size_max=np.int8(127),
                                  initializations=np.int8(1), candidates=np.int8(2),
                                  classifier=FAST_CLF, regressor=FAST_REG, seed=np.int8(3))
        assert all(type(getattr(config, key)) is int
                   for key in ("size_min", "size_max", "initializations", "candidates", "seed"))
        train = gen_gaussian_clouds(200, 0.5, 2.0, 2, seed=52)
        test = gen_gaussian_clouds(100, 0.5, 2.0, 2, seed=53)
        _, rows = build_lal(config, train, test, "independent")
        assert sorted(set(rows.tags[:, 0].tolist())) == [126, 127]


class TestRegressionSet:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            RegressionSet(np.zeros((2, 7)), np.zeros(3), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            RegressionSet(np.zeros((2, 6)), np.zeros(2), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            RegressionSet(np.full((1, 7), np.nan), np.zeros(1), np.zeros((1, 3)))

    def test_csv_export(self, tmp_path):
        rs = RegressionSet(np.arange(14).reshape(2, 7), [0.25, -0.5],
                           [[2, 0, 0], [2, 0, 1]])
        path = tmp_path / "rows.csv"
        rs.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "xi_0,xi_1,xi_2,xi_3,xi_4,xi_5,xi_6,delta,tau,q,m"
        assert lines[1].endswith("0.25,2,0,0")
        assert len(lines) == 3


class TestDataMonteCarlo:
    def test_row_exhaustion_when_candidates_exceed_pool(self, small_sets):
        train, test = small_sets
        rs = data_monte_carlo(train, test, FAST_CLF, _split(train, len(train) - 3, 1),
                              n_candidates=50, seed=1)
        assert len(rs) == 3

    def test_delta_zero_when_predictions_cannot_change(self):
        # clouds this far apart are classified perfectly by every forest
        # trained on a comfortably two-class labeled set, so adding any
        # label leaves the 0/1 test loss (and therefore delta) at zero
        train = gen_gaussian_clouds(60, 0.5, 40.0, 2, seed=52)
        test = gen_gaussian_clouds(80, 0.5, 40.0, 2, seed=53)
        rs = data_monte_carlo(train, test, FAST_CLF, _split(train, 20, 2),
                              n_candidates=6, seed=2)
        assert np.all(rs.deltas == 0.0)

    def test_tags_and_state_shape(self, small_sets):
        train, test = small_sets
        rs = data_monte_carlo(train, test, FAST_CLF, _split(train, 5, 3),
                              n_candidates=4, seed=3, init_tag=9)
        assert rs.states.shape == (4, 7)
        assert np.all(rs.tags[:, 0] == 5)
        assert np.all(rs.tags[:, 1] == 9)
        assert rs.tags[:, 2].tolist() == [0, 1, 2, 3]

    def test_zero_one_deltas_bounded(self, small_sets):
        train, test = small_sets
        rs = data_monte_carlo(train, test, FAST_CLF, _split(train, 3, 4),
                              n_candidates=10, seed=4)
        assert np.all(rs.deltas >= -1.0) and np.all(rs.deltas <= 1.0)

    def test_informative_candidates_reduce_loss_more(self):
        # on overlapping clouds with a 2-point start, candidates whose
        # predicted probability is near one half are worth more on average
        # than candidates the classifier is already sure about
        train = gen_gaussian_clouds(300, 0.5, 2.0, 2, seed=54)
        test = gen_gaussian_clouds(1000, 0.5, 2.0, 2, seed=55)
        parts = []
        for q in range(8):
            seed = derive_seed(60, "cell", q)
            parts.append(data_monte_carlo(
                train, test, ForestConfig(n_trees=20), _split(train, 2, seed),
                n_candidates=298, seed=seed, init_tag=q))
        rs = RegressionSet.concatenate(parts)
        psi = rs.states[:, 6]
        central = rs.deltas[np.abs(psi - 0.5) <= 0.05]
        extreme = rs.deltas[(psi <= 0.1) | (psi >= 0.9)]
        assert len(central) > 30 and len(extreme) > 30
        assert central.mean() > extreme.mean()

    def test_rejects_bad_sizes(self, small_sets):
        train, test = small_sets
        n = len(train)
        with pytest.raises(ValueError):
            data_monte_carlo(train, test, FAST_CLF, PoolState(list(range(n)), []),
                             n_candidates=2, seed=0)
        with pytest.raises(ValueError):
            data_monte_carlo(train, test, FAST_CLF, PoolState([0], np.arange(1, n)),
                             n_candidates=2, seed=0)


class TestIndependentBuilder:
    def test_degenerate_single_row_build(self, small_sets):
        train, test = small_sets
        config = _fast_config(size_min=2, size_max=2, initializations=1,
                              candidates=1, seed=5)
        strategy, rows = build_lal(config, train, test, "independent")
        assert len(rows) == 1
        assert strategy.provenance == "independent"
        grid = np.random.default_rng(0).random((5, 7))
        preds = strategy.regressor.predict_regression_batch(grid)
        assert np.all(preds == preds[0])  # constant predictor

    def test_row_count_is_full_grid(self, small_sets):
        train, test = small_sets
        config = _fast_config(size_min=2, size_max=5, initializations=3,
                              candidates=4, seed=6)
        _, rows = build_lal(config, train, test, "independent")
        assert len(rows) == config.n_sizes * 3 * 4

    def test_provenance_tags_are_unique(self, small_sets):
        train, test = small_sets
        config = _fast_config(seed=7)
        _, rows = build_lal(config, train, test, "independent")
        triples = {tuple(tag) for tag in rows.tags}
        assert len(triples) == len(rows)

    def test_deterministic_and_worker_independent(self, small_sets):
        train, test = small_sets
        config = _fast_config(seed=8)
        a, rows_a = build_lal(config, train, test, "independent", workers=1)
        b, rows_b = build_lal(config, train, test, "independent", workers=2)
        assert np.array_equal(rows_a.states, rows_b.states)
        assert np.array_equal(rows_a.deltas, rows_b.deltas)
        grid = np.random.default_rng(1).random((20, 7))
        assert np.array_equal(a.regressor.predict_regression_batch(grid),
                              b.regressor.predict_regression_batch(grid))

    def test_size_max_must_fit(self, small_sets):
        train, test = small_sets
        config = _fast_config(size_min=2, size_max=len(train), seed=9)
        with pytest.raises(ValueError):
            build_lal(config, train, test, "independent")


class TestIterativeBuilder:
    def test_single_stage_equals_independent(self, small_sets):
        train, test = small_sets
        config = _fast_config(size_min=4, size_max=4, initializations=3,
                              candidates=3, seed=10)
        ind, rows_i = build_lal(config, train, test, "independent")
        itr, rows_j = build_lal(config, train, test, "iterative")
        assert np.array_equal(rows_i.states, rows_j.states)
        assert np.array_equal(rows_i.deltas, rows_j.deltas)
        grid = np.random.default_rng(2).random((20, 7))
        assert np.array_equal(ind.regressor.predict_regression_batch(grid),
                              itr.regressor.predict_regression_batch(grid))
        assert itr.provenance == "iterative"

    def test_grown_split_adds_strategy_choices_to_random_start(self, small_sets):
        train, test = small_sets
        config = _fast_config(size_min=3, size_max=3, initializations=2,
                              candidates=2, seed=11)
        strategy, _ = build_lal(config, train, test, "iterative")
        grower = StrategyGrownSplit(strategy.regressor, FAST_CLF, start_size=3)
        [pool] = grower(train, 4, [12])
        assert pool.n_labeled == 4
        start = init_warm_start(train, 3, derive_seed(12, "start"))
        assert pool.labeled == sorted(pool.labeled)
        assert set(start.labeled) < set(pool.labeled)
        pool.check_partition(len(train))

    def test_numpy_integer_config_saves_like_plain_integers(self, small_sets, tmp_path):
        # training_metadata and the regressor's config then hold numpy
        # integers; the strategy file must not tell them apart
        from lalearn.strategies import save_strategy
        train, test = small_sets
        plain = _fast_config(size_max=3, seed=4)
        numpy = MonteCarloConfig(size_min=np.int64(2), size_max=np.int64(3),
                                 initializations=np.int64(2), candidates=np.int32(3),
                                 classifier=FAST_CLF,
                                 regressor=regressor_config(n_trees=np.int64(10)),
                                 seed=np.int64(4))
        for name, config in (("plain", plain), ("numpy", numpy)):
            strategy, _ = build_lal(config, train, test, "iterative")
            save_strategy(strategy, tmp_path / f"{name}.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_multi_stage_rows_and_determinism(self, small_sets):
        train, test = small_sets
        config = _fast_config(size_min=2, size_max=4, initializations=2,
                              candidates=2, seed=13)
        a, rows_a = build_lal(config, train, test, "iterative", workers=1)
        b, rows_b = build_lal(config, train, test, "iterative", workers=2)
        assert len(rows_a) == config.n_sizes * 2 * 2
        assert np.array_equal(rows_a.states, rows_b.states)
        assert np.array_equal(rows_a.deltas, rows_b.deltas)


class TestGrownSplitLockStep:
    @pytest.fixture(scope="class")
    def grower(self):
        # a regressor that prefers candidates with p0 near one half
        states = np.random.default_rng(20).random((400, 7))
        regressor = train_forest(states, -np.abs(states[:, 6] - 0.5),
                                 regressor_config(n_trees=5, min_leaf_size=5), seed=21)
        return StrategyGrownSplit(regressor, FAST_CLF, start_size=3)

    def test_grouped_growth_equals_growth_alone(self, small_sets, grower):
        train, _ = small_sets
        seeds = [31, 32, 33]
        pools = grower(train, 8, seeds)
        for seed, pool in zip(seeds, pools, strict=True):
            [alone] = grower(train, 8, [seed])
            assert pool.labeled == alone.labeled
            assert np.array_equal(pool.unlabeled, alone.unlabeled)
            pool.check_partition(len(train))
        assert len({tuple(pool.labeled) for pool in pools}) == 3

    def test_one_grouped_fit_per_step(self, small_sets, grower, monkeypatch):
        train, _ = small_sets
        calls = []
        original = training.train_forests

        def counting(sets, config=None):
            calls.append(len(sets))
            return original(sets, config)

        monkeypatch.setattr(training, "train_forests", counting)
        pools = grower(train, 7, [41, 42, 43])
        assert [pool.n_labeled for pool in pools] == [7, 7, 7]
        assert calls == [3] * 4  # one fit of every set per step, 3 -> 7 labels


class TestColdStart:
    def test_builds_and_is_deterministic(self, tmp_path):
        from lalearn.strategies import load_strategy, save_strategy
        config = _fast_config(seed=14)
        a, _ = build_lal(config, *cold_start_data(14, n_train=80, n_test=60), "independent")
        b, _ = build_lal(config, *cold_start_data(14, n_train=80, n_test=60), "independent")
        path = tmp_path / "s.json"
        save_strategy(a, path)
        loaded = load_strategy(path)
        grid = np.random.default_rng(3).random((10, 7))
        assert np.array_equal(a.regressor.predict_regression_batch(grid),
                              b.regressor.predict_regression_batch(grid))
        assert np.array_equal(loaded.regressor.predict_regression_batch(grid),
                              a.regressor.predict_regression_batch(grid))

    @pytest.mark.parametrize("bad", [dict(n_train=10.5), dict(n_test=20.5),
                                     dict(n_train=True)])
    def test_cold_start_data_rejects_non_integers_by_name(self, bad):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be an integer, got "):
            cold_start_data(1, **bad)

    def test_method_validation(self):
        train, test = cold_start_data(0, n_train=40, n_test=20)
        with pytest.raises(ValueError, match="method"):
            build_lal(_fast_config(), train, test, "magic")
        with pytest.raises(ValueError, match="too small"):
            cold_start_data(0, n_train=3)
