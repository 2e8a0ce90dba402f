"""Binary classification metrics used for test loss and curve reporting.

Class 1 is "positive" throughout: confusion counts, IOU, dice, and the
AUC score orientation all follow that convention.  The forest predicts
the class-0 probability, so a row is predicted class 1 when ``p0 < 0.5``
(a tie goes to class 0) and AUC scores are ``1 - p0``.  Every label must
be 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_IDS = ("accuracy", "zero_one", "iou", "dice", "auc")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")


def iou(counts: ConfusionCounts) -> float:
    """Intersection over union of the positive class; 1.0 when empty."""
    denom = counts.tp + counts.fp + counts.fn
    return counts.tp / denom if denom else 1.0


def dice(counts: ConfusionCounts) -> float:
    """Dice overlap of the positive class; 1.0 when empty."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    return 2 * counts.tp / denom if denom else 1.0


def _class1(labels) -> np.ndarray:
    """Where ``labels`` is 1; raises unless every label is 0 or 1."""
    y = np.asarray(labels)
    is1 = y == 1
    bad = ~(is1 | (y == 0))
    if bad.any():
        raise ValueError(f"labels must be 0 or 1, got {y[bad][0]}")
    return is1


def auc_roc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) area under the ROC curve.

    ``scores`` orient toward class 1; ties contribute one half.  Raises on
    a single-class label vector, where the area is undefined.
    """
    s = np.asarray(scores, dtype=np.float64)
    is1 = _class1(labels)
    if s.shape != is1.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equally long vectors")
    n1 = int(np.count_nonzero(is1))
    n0 = len(s) - n1
    if n1 == 0 or n0 == 0:
        raise ValueError("AUC is undefined for a single-class label vector")
    values, level = np.unique(s, return_inverse=True)
    pos = np.bincount(level[is1], minlength=len(values))
    neg = np.bincount(level[~is1], minlength=len(values))
    # twice U: each positive beats the negatives below it and ties the rest at
    # its score, an exact integer, so the quotient is correctly rounded
    twice_u = int(pos @ (2 * (np.cumsum(neg) - neg) + neg))
    return twice_u / (2 * n1 * n0)


def evaluate_probability_metric(metric: str, proba_class0, labels) -> float:
    """Evaluate a metric id against class-0 probabilities."""
    if metric not in METRIC_IDS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRIC_IDS}")
    p0 = np.asarray(proba_class0, dtype=np.float64)
    if metric == "auc":
        return auc_roc(1.0 - p0, labels)
    is1 = _class1(labels)
    if p0.shape != is1.shape:
        raise ValueError("probabilities and labels must align")
    if is1.size == 0:
        raise ValueError("no evaluated samples")
    # cell 2 * actual + predicted
    tn, fp, fn, tp = np.bincount((2 * is1 + (p0 < 0.5)).ravel(), minlength=4).tolist()
    if metric in ("accuracy", "zero_one"):
        accuracy = (tp + tn) / is1.size
        # not (fp + fn) / total, which can round differently
        return accuracy if metric == "accuracy" else 1.0 - accuracy
    counts = ConfusionCounts(tp, fp, tn, fn)
    return iou(counts) if metric == "iou" else dice(counts)


def loss_from_metric(metric: str, proba_class0, labels) -> float:
    """Test loss for strategy learning: 0/1 loss directly, 1 - value otherwise."""
    value = evaluate_probability_metric(metric, proba_class0, labels)
    return value if metric == "zero_one" else 1.0 - value
