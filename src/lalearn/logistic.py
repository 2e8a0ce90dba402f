"""Logistic regression trained by full-batch gradient descent.

Used by the error-reduction study on two-cloud data, where thousands of
classifiers must be fit on two- and three-point training sets.  One
batched trainer fits many such models simultaneously; a single model is
the batch of one.  Weights put the bias last:
p(y=1 | x) = sigmoid(w . [x, 1]).
"""

from __future__ import annotations

import numpy as np


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))


def train_logistic_batch(features, targets, sample_mask, learn_rate: float = 0.5,
                         iterations: int = 200) -> np.ndarray:
    """Fit B independent models at once.

    Parameters
    ----------
    features : (B, S, D) array
        Per-model training rows; slots with ``sample_mask == 0`` are padding.
    targets : (B, S) array
    sample_mask : (B, S) array of 0/1

    Returns
    -------
    (B, D+1) weight matrix, bias last.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    m = np.asarray(sample_mask, dtype=np.float64)
    b, s, d = X.shape
    x1 = np.concatenate([X, np.ones((b, s, 1))], axis=2)
    w = np.zeros((b, d + 1))
    counts = m.sum(axis=1, keepdims=True)
    for _ in range(iterations):
        p = sigmoid(np.einsum("bsd,bd->bs", x1, w))
        err = (p - y) * m
        w = w - learn_rate * (np.einsum("bsd,bs->bd", x1, err) / counts)
    return w
