"""Dataset types, synthetic generators, CSV round-trip, splits, and inits."""

import numpy as np
import pytest

from lalearn.data import (Dataset, PoolState, checkerboard_label, gen_banana,
                          gen_checkerboard, gen_gaussian_clouds, init_cold_start,
                          init_warm_start, load_csv, merge, save_csv, split)
from lalearn.forest import ForestConfig, train_forest
from lalearn.logistic import sigmoid, train_logistic_batch


class TestDataset:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), np.array([0]))

    def test_subset_keeps_alignment(self):
        data = gen_gaussian_clouds(10, 0.5, 1.0, 2, seed=0)
        sub = data.subset([2, 5, 7])
        assert np.array_equal(sub.features, data.features[[2, 5, 7]])
        assert np.array_equal(sub.labels, data.labels[[2, 5, 7]])


class TestPoolState:
    def test_acquire_moves_exactly_one_index(self):
        pool = PoolState([3, 0], np.array([1, 2, 4]))
        assert pool.labeled == [0, 3]
        pool.acquire(2)
        assert pool.labeled == [0, 2, 3]
        assert np.array_equal(pool.unlabeled, [1, 4])

    def test_acquire_rejects_unknown_index(self):
        pool = PoolState([0], np.array([1, 2]))
        with pytest.raises(ValueError):
            pool.acquire(5)
        with pytest.raises(ValueError):
            pool.acquire(0)

    def test_partition_check(self):
        PoolState([0, 1], np.array([2, 3])).check_partition(4)
        with pytest.raises(ValueError):
            PoolState([0, 1], np.array([1, 2])).check_partition(3)
        with pytest.raises(ValueError):
            PoolState([0], np.array([2])).check_partition(3)


class TestGaussianClouds:
    def test_balanced_counts(self):
        data = gen_gaussian_clouds(1000, 0.5, 2.0, 2, seed=7)
        assert int(np.sum(data.labels == 0)) == 500
        assert int(np.sum(data.labels == 1)) == 500

    def test_two_to_one_ratio(self):
        data = gen_gaussian_clouds(900, 2.0 / 3.0, 2.0, 2, seed=1)
        assert int(np.sum(data.labels == 0)) == 600
        assert int(np.sum(data.labels == 1)) == 300

    def test_determinism(self):
        a = gen_gaussian_clouds(100, 0.4, 1.5, 3, seed=11)
        b = gen_gaussian_clouds(100, 0.4, 1.5, 3, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            gen_gaussian_clouds(10, 0.01, 1.0, 2, seed=0)

    def test_sample_means_converge(self):
        data = gen_gaussian_clouds(100000, 0.5, 2.0, 2, seed=3)
        mean0 = data.features[data.labels == 0].mean(axis=0)
        mean1 = data.features[data.labels == 1].mean(axis=0)
        assert np.all(np.abs(mean0 - np.array([-1.0, 0.0])) < 0.02)
        assert np.all(np.abs(mean1 - np.array([1.0, 0.0])) < 0.02)


class TestCheckerboard:
    def test_label_formula_pointwise(self):
        assert checkerboard_label(2, 0.25, 0.25) == 0
        assert checkerboard_label(2, 0.75, 0.25) == 1
        assert checkerboard_label(4, 0.30, 0.10) == 1

    def test_every_sample_obeys_the_parity_formula(self):
        data = gen_checkerboard(4, 500, seed=5)
        expected = checkerboard_label(4, data.features[:, 0], data.features[:, 1])
        assert np.array_equal(data.labels, expected)

    def test_class_balance(self):
        data = gen_checkerboard(2, 1000, seed=9)
        assert abs(np.mean(data.labels == 0) - 0.5) <= 0.05

    def test_grid_side_restricted(self):
        with pytest.raises(ValueError):
            gen_checkerboard(3, 100, seed=0)

    def test_label_noise_flips_some(self):
        clean = gen_checkerboard(2, 400, seed=2)
        noisy = gen_checkerboard(2, 400, seed=2, label_noise=0.2)
        assert np.array_equal(clean.features, noisy.features)
        flipped = np.mean(clean.labels != noisy.labels)
        assert 0.1 < flipped < 0.3


class TestBanana:
    def test_zero_noise_points_lie_on_arcs(self):
        data = gen_banana(200, noise=0.0, seed=4)
        upper = data.features[data.labels == 0]
        assert np.allclose(np.hypot(upper[:, 0], upper[:, 1]), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= 0)

    def test_even_split(self):
        data = gen_banana(1000, noise=0.1, seed=6)
        assert int(np.sum(data.labels == 0)) == 500

    def test_forest_beats_linear_model(self):
        # the crescents are not linearly separable: a linear classifier
        # plateaus below what a forest reaches
        data = gen_banana(1000, noise=0.15, seed=8)
        train, test = split(data, 0.5, seed=1)
        weights = train_logistic_batch(train.features[None], train.labels[None],
                                       np.ones((1, len(train))), learn_rate=0.5,
                                       iterations=500)[0]
        test_x1 = np.hstack([test.features, np.ones((len(test), 1))])
        linear_pred = (sigmoid(test_x1 @ weights) > 0.5).astype(int)
        linear_acc = float(np.mean(linear_pred == test.labels))
        forest = train_forest(train.features, train.labels, ForestConfig(n_trees=50),
                              seed=2)
        forest_pred = (forest.predict_proba_batch(test.features) < 0.5).astype(int)
        forest_acc = float(np.mean(forest_pred == test.labels))
        assert linear_acc < 0.95
        assert forest_acc > 0.95


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        data = gen_gaussian_clouds(50, 0.5, 2.0, 3, seed=10)
        path = tmp_path / "data.csv"
        save_csv(data, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_small_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n1.0,2.0,1\n-1.0,0.25,1\n")
        data = load_csv(path)
        assert len(data) == 3
        assert data.n_features == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,1\n3.0,0\n4.0,2\n")
        with pytest.raises(ValueError, match="line 5"):
            load_csv(path)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ValueError, match="line 3.*f1"):
            load_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("f0,label\n1.0,0\n")
        with pytest.raises(ValueError, match="fewer than 2"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "no_label.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="label"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_file_line_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n\n1.0,{cell},1\n")
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == (f"{path} line 4, column 'f1': "
                                  f"cell {cell!r} is not a finite number")

    @pytest.mark.parametrize("header, twice", [("f0,label,label", "label"),
                                               ("f0,f1,f0,label", "f0"),
                                               ("f0, label,label ", "label")])
    def test_a_column_named_twice_is_rejected(self, tmp_path, header, twice):
        # the second copy of the label would otherwise load as a feature
        path = tmp_path / "dup.csv"
        cells = len(header.split(","))
        path.write_text(header + "\n" + ("1," * (cells - 1) + "0\n") * 3)
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: column {twice!r} appears twice in the header"

    def test_bytes_of_edge_values_are_pinned_and_round_trip(self, tmp_path):
        data = Dataset(np.array([[-0.0, 5e-324, 1e16], [0.1 + 0.2, -1.5, 2.0 ** 60]]),
                       np.array([0, 1], dtype=np.int64))
        path = tmp_path / "edge.csv"
        save_csv(data, path)
        assert path.read_bytes() == (b"f0,f1,f2,label\n"
                                     b"-0.0,5e-324,1e+16,0\n"
                                     b"0.30000000000000004,-1.5,1.152921504606847e+18,1\n")
        loaded = load_csv(path)
        assert loaded.features.tobytes() == data.features.tobytes()  # keeps the sign of -0.0
        assert loaded.labels.dtype == np.int64
        assert np.array_equal(loaded.labels, data.labels)


class TestSplit:
    def test_sizes_and_coverage(self):
        data = gen_gaussian_clouds(100, 0.5, 2.0, 2, seed=12)
        train, test = split(data, 0.3, seed=3)
        assert len(train) == 70 and len(test) == 30
        stacked = np.vstack([train.features, test.features])
        assert np.array_equal(np.sort(stacked, axis=0), np.sort(data.features, axis=0))

    def test_determinism(self):
        data = gen_gaussian_clouds(60, 0.5, 2.0, 2, seed=13)
        a = split(data, 0.25, seed=4)
        b = split(data, 0.25, seed=4)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_single_class_part_rejected(self):
        features = np.arange(20, dtype=float).reshape(10, 2)
        labels = np.array([0] * 9 + [1])
        data = Dataset(features, labels)
        with pytest.raises(ValueError):
            split(data, 0.1, seed=0)  # a lone class-1 row cannot be in both parts


class TestInits:
    def test_cold_start_one_per_class(self):
        data = gen_gaussian_clouds(40, 0.5, 2.0, 2, seed=14)
        pool = init_cold_start(data, seed=5)
        assert pool.n_labeled == 2
        assert pool.n_unlabeled == 38
        assert sorted(data.labels[pool.labeled].tolist()) == [0, 1]
        pool.check_partition(40)

    def test_cold_start_determinism(self):
        data = gen_gaussian_clouds(40, 0.5, 2.0, 2, seed=15)
        assert init_cold_start(data, seed=6).labeled == init_cold_start(data, seed=6).labeled

    def test_cold_start_needs_both_classes(self):
        data = Dataset(np.ones((5, 1)), np.zeros(5))
        with pytest.raises(ValueError):
            init_cold_start(data, seed=0)

    def test_warm_start_size_and_classes(self):
        data = gen_gaussian_clouds(200, 0.5, 2.0, 2, seed=16)
        pool = init_warm_start(data, 20, seed=7)
        assert pool.n_labeled == 20
        picked = data.labels[pool.labeled]
        assert (picked == 0).any() and (picked == 1).any()
        pool.check_partition(200)

    def test_warm_start_rejects_full_pool(self):
        data = gen_gaussian_clouds(50, 0.5, 2.0, 2, seed=17)
        with pytest.raises(ValueError):
            init_warm_start(data, 50, seed=0)

    def test_warm_start_retries_then_errors_on_near_single_class(self):
        # class 1 has a single member: size-2 draws rarely include it, so
        # the bounded retry must eventually give up on a hostile seed
        features = np.arange(400, dtype=float).reshape(200, 2)
        labels = np.zeros(200, dtype=int)
        labels[0] = 1
        data = Dataset(features, labels)
        failures = 0
        for seed in range(40):
            try:
                pool = init_warm_start(data, 2, seed=seed)
                picked = data.labels[pool.labeled]
                assert (picked == 0).any() and (picked == 1).any()
            except ValueError:
                failures += 1
        assert failures > 0


def test_merge_concatenates():
    a = gen_gaussian_clouds(10, 0.5, 2.0, 2, seed=18)
    b = gen_gaussian_clouds(6, 0.5, 2.0, 2, seed=19)
    both = merge(a, b)
    assert len(both) == 16
    assert np.array_equal(both.features[:10], a.features)
    assert np.array_equal(both.labels[10:], b.labels)
