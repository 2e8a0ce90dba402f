"""Metric formulas, conventions, and the rank-based AUC."""

import numpy as np
import pytest

from lalearn.metrics import (METRIC_IDS, ConfusionCounts, auc_roc, dice,
                             evaluate_probability_metric, iou, loss_from_metric)


def _pair_counting_auc(scores, labels):
    """O(n^2) oracle: fraction of positive/negative pairs ranked correctly."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestCounts:
    def test_each_cell_lands_in_its_count(self):
        # p0 < 0.5 predicts class 1; rows: tp, fp, tn, fn, fn
        p0 = np.array([0.2, 0.3, 0.8, 0.9, 0.6])
        y = np.array([1, 0, 0, 1, 1])
        assert evaluate_probability_metric("accuracy", p0, y) == 2 / 5
        assert evaluate_probability_metric("iou", p0, y) == 1 / 4
        assert evaluate_probability_metric("dice", p0, y) == 2 / 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


class TestAccuracy:
    def test_perfect_and_all_wrong(self):
        p0 = np.array([0.9, 0.1, 0.7, 0.3])
        y = np.array([0, 1, 0, 1])
        assert evaluate_probability_metric("accuracy", p0, y) == 1.0
        assert evaluate_probability_metric("zero_one", p0, y) == 0.0
        assert evaluate_probability_metric("accuracy", p0, 1 - y) == 0.0
        assert evaluate_probability_metric("zero_one", p0, 1 - y) == 1.0

    def test_tie_predicts_class0(self):
        y = np.array([0, 1, 1])
        assert evaluate_probability_metric("accuracy", [0.5, 0.51, 0.49], y) == 2 / 3
        assert evaluate_probability_metric("accuracy", [0.5, 0.5, 0.5], y) == 1 / 3

    def test_complement_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            p0 = np.round(rng.random(n), 1)
            y = rng.integers(0, 2, size=n)
            assert (evaluate_probability_metric("accuracy", p0, y)
                    + evaluate_probability_metric("zero_one", p0, y)) == 1.0

    @pytest.mark.parametrize("metric", ["accuracy", "zero_one", "iou", "dice"])
    def test_empty_rejected(self, metric):
        with pytest.raises(ValueError, match="no evaluated samples"):
            evaluate_probability_metric(metric, [], [])

    def test_float_labels_accepted(self):
        p0 = np.array([0.9, 0.2, 0.5])
        assert evaluate_probability_metric("accuracy", p0, [0.0, 1.0, 1.0]) == 2 / 3

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="align"):
            evaluate_probability_metric("accuracy", [0.2, 0.7], [0, 1, 1])


class TestOverlap:
    def test_perfect_detection(self):
        c = ConfusionCounts(tp=1, fp=0, tn=0, fn=0)
        assert iou(c) == 1.0 and dice(c) == 1.0

    def test_half_overlap(self):
        c = ConfusionCounts(tp=1, fp=1, tn=0, fn=0)
        assert iou(c) == 0.5
        assert dice(c) == pytest.approx(2.0 / 3.0)

    def test_empty_denominator_convention(self):
        c = ConfusionCounts(tp=0, fp=0, tn=4, fn=0)
        assert iou(c) == 1.0 and dice(c) == 1.0

    def test_dice_iou_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, size=4))
            c = ConfusionCounts(tp, fp, tn, fn)
            assert dice(c) == pytest.approx(2 * iou(c) / (1 + iou(c)))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auc_roc(np.ones(6), [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc([0.1, 0.2], [1, 1])

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            labels = rng.integers(0, 2, size=20)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.random(20), 1)  # duplicates force tie handling
            assert auc_roc(scores, labels) == pytest.approx(
                _pair_counting_auc(scores, labels), abs=1e-12)

    def test_negation_symmetry_without_ties(self):
        rng = np.random.default_rng(4)
        scores = rng.permutation(30) / 30.0
        labels = rng.integers(0, 2, size=30)
        labels[:2] = [0, 1]
        assert auc_roc(scores, labels) + auc_roc(-scores, labels) == pytest.approx(1.0)

    def test_order_invariance(self):
        scores = np.array([0.3, 0.9, 0.1, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1, 0])
        perm = np.array([4, 2, 0, 3, 1])
        assert auc_roc(scores, labels) == auc_roc(scores[perm], labels[perm])


def _direct(metric, p0, y):
    """The metric counted row by row, without numpy."""
    cells = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for p, label in zip(p0, y):
        predicted = 1 if p < 0.5 else 0
        key = ("t" if predicted == label else "f") + ("p" if predicted == 1 else "n")
        cells[key] += 1
    tp, fp, tn, fn = cells["tp"], cells["fp"], cells["tn"], cells["fn"]
    if metric == "accuracy":
        return (tp + tn) / len(y)
    if metric == "zero_one":
        return 1.0 - (tp + tn) / len(y)
    if metric == "iou":
        return tp / (tp + fp + fn) if tp + fp + fn else 1.0
    if metric == "dice":
        return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
    return _pair_counting_auc([1.0 - p for p in p0], y)


class TestProbabilityInterface:
    def test_matches_direct_count(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            p0 = np.round(rng.random(n), int(rng.integers(0, 3)))
            p0[rng.random(n) < 0.2] = 0.5
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            for metric in METRIC_IDS:
                assert evaluate_probability_metric(metric, p0, y) == pytest.approx(
                    _direct(metric, p0, y), abs=1e-12), metric

    @pytest.mark.parametrize("metric", METRIC_IDS)
    @pytest.mark.parametrize("bad", [2, 0.5, -1])
    def test_labels_other_than_0_1_rejected(self, metric, bad):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            evaluate_probability_metric(metric, [0.9, 0.1, 0.2], [0, 1, bad])
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            loss_from_metric(metric, [0.9, 0.1, 0.2], [0, 1, bad])

    def test_auc_rejects_labels_other_than_0_1(self):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            auc_roc([0.1, 0.2, 0.3], [0, 1, 2])

    def test_evaluate_accuracy(self):
        p0 = np.array([0.9, 0.2, 0.6, 0.1])
        y = np.array([0, 1, 0, 1])
        assert evaluate_probability_metric("accuracy", p0, y) == 1.0
        assert evaluate_probability_metric("zero_one", p0, y) == 0.0

    def test_auc_score_orientation(self):
        # class-1 score is 1 - p0, so small p0 must mean confident class 1
        p0 = np.array([0.9, 0.8, 0.2, 0.1])
        y = np.array([0, 0, 1, 1])
        assert evaluate_probability_metric("auc", p0, y) == 1.0

    def test_loss_orientation(self):
        p0 = np.array([0.9, 0.1])
        y = np.array([0, 1])
        assert loss_from_metric("zero_one", p0, y) == 0.0
        assert loss_from_metric("auc", p0, y) == 0.0
        assert loss_from_metric("accuracy", p0, y) == 0.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            evaluate_probability_metric("f1", [0.5], [1])
