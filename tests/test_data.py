"""Dataset types, synthetic generators, CSV round-trip, splits, and inits."""

import hashlib

import numpy as np
import pytest

from lalearn.data import (Dataset, PoolState, checkerboard_label, gen_banana,
                          gen_checkerboard, gen_gaussian_clouds, init_cold_start,
                          init_warm_start, load_csv, merge, save_csv, split)
from lalearn.forest import ForestConfig, train_forest
from lalearn.logistic import sigmoid, train_logistic_batch
from lalearn.seeding import rng_for


class TestDataset:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0, np.nan]]), np.array([0]))

    def test_rejects_fractional_labels_instead_of_truncating_them(self):
        with pytest.raises(ValueError, match="first bad row: 0"):
            Dataset(np.ones((2, 1)), [0.7, 1.0])

    @pytest.mark.parametrize("bad", [0.7, np.nan, "1", None])
    def test_rejects_labels_that_are_not_0_or_1(self, bad):
        with pytest.raises(ValueError, match="first bad row: 1"):
            Dataset(np.ones((3, 1)), np.array([1, bad, 0], dtype=object))

    def test_rejects_string_labels(self):
        with pytest.raises(ValueError, match="first bad row: 0"):
            Dataset(np.ones((2, 1)), ["0", "1"])

    def test_accepts_boolean_labels(self):
        data = Dataset(np.ones((2, 1)), [True, False])
        assert data.labels.tolist() == [1, 0] and data.labels.dtype == np.int64

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


def _imbalanced(n, minority, label):
    """``n`` rows on a line; ``minority`` of them, evenly spaced, are of class ``label``."""
    labels = np.full(n, 1 - label)
    labels[::n // minority][:minority] = label
    return Dataset(np.arange(2.0 * n).reshape(n, 2), labels)


DRAW_DATA = {
    "clouds_60": gen_gaussian_clouds(60, 0.5, 2.0, 2, seed=20),
    "four_of_400": _imbalanced(400, 4, 1),
    "two_of_42": _imbalanced(42, 2, 1),
    "three_zeros_of_30": _imbalanced(30, 3, 0),
    "one_of_200": _imbalanced(200, 1, 1),
}

DRAWS = {
    "split_0.5": lambda data, seed: split(data, 0.5, seed),
    "split_0.3": lambda data, seed: split(data, 0.3, seed),
    "warm_2": lambda data, seed: init_warm_start(data, 2, seed),
    "warm_5": lambda data, seed: init_warm_start(data, 5, seed),
    "cold": lambda data, seed: init_cold_start(data, seed),
}

DRAW_SEEDS = range(40)


def _draw_bytes(out) -> bytes:
    if isinstance(out, PoolState):
        return np.asarray(out.labeled, dtype=np.int64).tobytes() + out.unlabeled.tobytes()
    return b"".join(part.features.tobytes() + part.labels.tobytes() for part in out)


def _draw_digest(data_name, draw_name, skip=()):
    """SHA-256 over the draws at every seed of ``DRAW_SEEDS`` not in ``skip``."""
    digest = hashlib.sha256()
    for seed in DRAW_SEEDS:
        if seed not in skip:
            digest.update(_draw_bytes(DRAWS[draw_name](DRAW_DATA[data_name], seed)))
    return digest.hexdigest()


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
        with pytest.raises(ValueError, match="9 rows of class 0 and 1 of class 1"):
            split(data, 0.1, seed=0)  # a lone class-1 row cannot be in both parts

    def test_one_row_part_rejected(self):
        data = Dataset(np.arange(20, dtype=float).reshape(10, 2), np.array([0, 1] * 5))
        with pytest.raises(ValueError, match="a test part of 1 rows and a train part of 9"):
            split(data, 0.1, seed=0)

    @pytest.mark.parametrize("fraction, problem", [
        (1.5, "test_fraction must lie strictly between 0 and 1"),
        (0.1, "no split holds both classes in both parts"),
    ])
    def test_errors_name_the_fraction_and_the_dataset(self, fraction, problem):
        data = Dataset(np.arange(20, dtype=float).reshape(10, 2), np.array([0, 1] * 5),
                       name="ten_rows")
        with pytest.raises(ValueError) as info:
            split(data, fraction, seed=0)
        assert str(info.value).startswith(f"test_fraction {fraction} on dataset ten_rows: "
                                          f"{problem}")

    @pytest.mark.parametrize("data_name", ["four_of_400", "two_of_42", "three_zeros_of_30"])
    @pytest.mark.parametrize("fraction", [0.5, 0.3])
    def test_imbalanced_split_holds_both_classes_at_every_seed(self, data_name, fraction):
        data = DRAW_DATA[data_name]
        n = len(data)
        n_test = int(round(n * fraction))
        moved = 0
        for seed in DRAW_SEEDS:
            train, test = split(data, fraction, seed)
            assert train.has_both_classes() and test.has_both_classes(), seed
            assert (len(train), len(test)) == (n - n_test, n_test)
            # the rows sit on a line, so a row's first feature names its index
            test_idx = (test.features[:, 0] / 2).astype(int)
            train_idx = (train.features[:, 0] / 2).astype(int)
            assert sorted(test_idx.tolist() + train_idx.tolist()) == list(range(n))
            again = split(data, fraction, seed)
            assert again[0].features.tobytes() == train.features.tobytes()
            assert again[1].features.tobytes() == test.features.tobytes()
            perm = rng_for(seed).permutation(n)
            labels = data.labels[perm]
            if np.ptp(labels[:n_test]) and np.ptp(labels[n_test:]):
                assert test_idx.tolist() == perm[:n_test].tolist()
                continue
            # each class's first row leads the test part, its second the train part
            moved += 1
            firsts = [perm[np.flatnonzero(labels == c)[0]] for c in (0, 1)]
            seconds = [perm[np.flatnonzero(labels == c)[1]] for c in (0, 1)]
            assert sorted(test_idx[:2].tolist()) == sorted(firsts)
            assert sorted(train_idx[:2].tolist()) == sorted(seconds)
            kept = [i for i in perm if i not in firsts + seconds]
            assert test_idx[2:].tolist() + train_idx[2:].tolist() == kept
        assert moved > 0


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
        with pytest.raises(ValueError, match="5 rows of class 0 and 0 of class 1"):
            init_cold_start(data, seed=0)

    def test_warm_start_needs_both_classes(self):
        data = Dataset(np.ones((5, 1)), np.ones(5))
        with pytest.raises(ValueError, match="0 rows of class 0 and 5 of class 1"):
            init_warm_start(data, 2, seed=0)

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

    @pytest.mark.parametrize("data_name", ["one_of_200", "four_of_400"])
    @pytest.mark.parametrize("n0", [2, 5])
    def test_warm_start_holds_both_classes_at_every_seed(self, data_name, n0):
        # class 1 has one or four members in hundreds of rows: most uniform
        # draws miss it, so many seeds need the draw of one row per class
        data = DRAW_DATA[data_name]
        for seed in DRAW_SEEDS:
            pool = init_warm_start(data, n0, seed)
            assert pool.n_labeled == n0
            assert sorted(set(data.labels[pool.labeled].tolist())) == [0, 1], seed
            pool.check_partition(len(data))
            assert init_warm_start(data, n0, seed).labeled == pool.labeled


# (data, draw, the seeds where the draw raised before splits and starts
# became total, SHA-256 of the draws at every other seed)
PINNED_DRAWS = [
    ("clouds_60", "split_0.5", (),
     "a7c6e002a21da5870bd3f372f0cb1719ef60bb17aab3ebb648fa8c88532c49c2"),
    ("clouds_60", "split_0.3", (),
     "f68731ab7069dddb7f654114ba1094c196d84a48d57ce3ca7ba5918e9c909b94"),
    ("clouds_60", "warm_2", (),
     "ffdf2a77ebc2a7079ae80a2951d4b34cf271dd4c98db050cdae96e43d6c2d587"),
    ("clouds_60", "warm_5", (),
     "df497da59e801a8854a9f741d2087eab4916db497bdf1aaca3b3641703cb8b13"),
    ("clouds_60", "cold", (),
     "6a6c797e8fa351c687de8ccc1a5d43e56844fa0c0cce52d5d2115a908b8e2c36"),
    ("four_of_400", "split_0.5", (5, 17, 19, 26),
     "8dd1aaed2466e3840bef9d9d77a94125437152cdd26ce4cf64ea997217eacc82"),
    ("four_of_400", "split_0.3", (1, 11, 12, 17, 18, 19, 21, 26, 32, 36, 38),
     "f24a1e34e7e0f0889ae9105518edbd5933253b961f2e33590aa57dd17eed68ef"),
    ("four_of_400", "warm_2", (0, 1, 2, 3, 4, 6, 7, 8, 11, 14, 15, 16, 18, 20, 21, 22, 26,
                               27, 28, 29, 30, 31, 32, 33, 34, 36, 37, 38, 39),
     "2b2b82b09d00c3b9d36f4a366174803f4043a6b17caddf426266c8d1c6daf157"),
    ("four_of_400", "warm_5", (0, 1, 5, 6, 8, 16, 17, 20, 22, 23, 29, 31, 36, 37),
     "25df8405ad353dae04ba1aff823ef3e8292dc26d8d7f8e6bc3179ae4f87457d3"),
    ("four_of_400", "cold", (),
     "65bf02d3004cffff7738aa784df552ca543593d5759d7397d5254edfb0cf2871"),
    ("two_of_42", "split_0.5", (1, 2, 3, 5, 10, 14, 16, 17, 18, 21, 23, 24, 25, 26, 28, 29,
                                30, 31, 32, 33, 34, 36, 37, 38),
     "299c7d043357fe067eaf09cf0a9b6e1ddaf747fe7a53c4776384509b25cd6347"),
    ("two_of_42", "split_0.3", (0, 2, 4, 5, 6, 8, 10, 14, 16, 17, 21, 23, 26, 27, 28, 29,
                                30, 31, 32, 33, 39),
     "35f4ad321410f8f076187eb92279301e6a030ca3e30379364fd0c6bb21b40920"),
    ("two_of_42", "warm_2", (2, 3, 6, 16, 18, 20, 29, 30, 32, 37, 38, 39),
     "849ce094bfa43176ce2a0f4a4b59241c6acd4730b5fd7417bb4a55d1dceeadf2"),
    ("two_of_42", "warm_5", (1, 17, 33),
     "3f6bb1059430dcd54a22377e3ff6bb41f64f0bb145a8ff7082568c0c452677e4"),
    ("two_of_42", "cold", (),
     "c6638db7d6405121c6d5e294a4275ab9c28a7ba610d93d1f2616da99a072786d"),
    ("three_zeros_of_30", "split_0.5", (3, 4, 5, 6, 10, 13, 16, 17, 19, 20, 21, 22, 23, 24,
                                        36, 38),
     "65d3c4d2dac274ba83f8b0b1423b1fa0f534cae7433ddf9935896f0da2253d88"),
    ("three_zeros_of_30", "split_0.3", (1, 2, 5, 6, 7, 9, 10, 12, 16, 17, 19, 22, 23, 28,
                                        30, 32, 38, 39),
     "e2b8690adfbd0fbc8d2a706fc05e920536edaed3f8771044144a5a8bbba36c02"),
    ("three_zeros_of_30", "warm_2", (28, 33, 38),
     "e1b38bee3ac8b3470b8e880344163b6542a8488531726ebe374bf70ec4417c88"),
    ("three_zeros_of_30", "warm_5", (),
     "8c6aac7f40904713ada18d48726af51749b7794d4eb60887e13d9abe46b97394"),
    ("three_zeros_of_30", "cold", (),
     "3ab1dce41c13bffd11fb05e3f79f6cf827186ac6ef036a84b0c76a5f6be08ad6"),
    ("one_of_200", "warm_2", (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 20,
                              21, 24, 26, 27, 28, 29, 30, 31, 32, 33, 34, 36, 37, 38, 39),
     "18324e0c003473042d84e3a2a08c5e9b6a222ec861599da5994594af943087b9"),
    ("one_of_200", "warm_5", (1, 2, 3, 4, 5, 6, 8, 11, 12, 14, 15, 16, 17, 20, 26, 27, 28,
                              29, 31, 32, 33, 34, 36, 37, 38),
     "a3c492ebce13f95cf33b053c100c335ccbd632697218a5f0c04e530dc36d6e0f"),
    ("one_of_200", "cold", (),
     "2b845d6cc9aec305451ad2224357866044e7d42111159095c3be67eacebfddcf"),
]


class TestDrawBits:
    @pytest.mark.parametrize("data_name, draw_name, skip, expected", PINNED_DRAWS,
                             ids=[f"{d}-{w}" for d, w, _, _ in PINNED_DRAWS])
    def test_every_draw_that_never_failed_keeps_its_bits(self, data_name, draw_name,
                                                         skip, expected):
        assert _draw_digest(data_name, draw_name, skip) == expected


def test_merge_concatenates():
    a = gen_gaussian_clouds(10, 0.5, 2.0, 2, seed=18)
    b = gen_gaussian_clouds(6, 0.5, 2.0, 2, seed=19)
    both = merge(a, b)
    assert len(both) == 16
    assert np.array_equal(both.features[:10], a.features)
    assert np.array_equal(both.labels[10:], b.labels)
