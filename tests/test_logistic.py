"""Logistic regression: gradient correctness and the batched trainer."""

import numpy as np

from lalearn.logistic import sigmoid, train_logistic_batch


# reference loss and gradient of one model, the oracles train_logistic_batch
# is checked against here and in acceptance criterion 6

def _augment(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return np.hstack([X, np.ones((X.shape[0], 1))])


def logistic_loss(weights, features, targets) -> float:
    """Mean log-loss of ``sigmoid(X1 @ w)`` against 0/1 targets."""
    x1 = _augment(features)
    y = np.asarray(targets, dtype=np.float64)
    p = np.clip(sigmoid(x1 @ np.asarray(weights, dtype=np.float64)), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def logistic_gradient(weights, features, targets) -> np.ndarray:
    """Gradient of :func:`logistic_loss` with respect to the weights."""
    x1 = _augment(features)
    y = np.asarray(targets, dtype=np.float64)
    p = sigmoid(x1 @ np.asarray(weights, dtype=np.float64))
    return x1.T @ (p - y) / len(y)


def _train_one(X, y, learn_rate, iterations):
    """Weights of a single model: the batched trainer with B = 1."""
    return train_logistic_batch(X[None], y[None], np.ones((1, len(y))),
                                learn_rate, iterations)[0]


def test_separated_pair_trains_to_perfect_accuracy():
    X = np.array([[-2.0, 0.0], [2.0, 0.0]])
    y = np.array([0, 1])
    w = _train_one(X, y, learn_rate=1.0, iterations=300)
    p = sigmoid(np.hstack([X, np.ones((2, 1))]) @ w)
    assert p[0] < 0.5 < p[1]


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12).astype(float)
    w = rng.normal(scale=0.5, size=4)
    analytic = logistic_gradient(w, X, y)
    h = 1e-6
    for j in range(4):
        delta = np.zeros(4)
        delta[j] = h
        numeric = (logistic_loss(w + delta, X, y) - logistic_loss(w - delta, X, y)) / (2 * h)
        assert abs(analytic[j] - numeric) <= 1e-5 * max(1.0, abs(numeric))


def test_training_reduces_loss():
    rng = np.random.default_rng(12)
    X = np.vstack([rng.normal(-1, 1, size=(30, 2)), rng.normal(1, 1, size=(30, 2))])
    y = np.array([0] * 30 + [1] * 30, dtype=float)
    w = _train_one(X, y, learn_rate=0.5, iterations=200)
    assert logistic_loss(w, X, y) < logistic_loss(np.zeros(3), X, y)


def test_batched_trainer_matches_single_models():
    rng = np.random.default_rng(13)
    batch = 7
    X = rng.normal(size=(batch, 3, 2))
    y = rng.integers(0, 2, size=(batch, 3)).astype(float)
    mask = np.ones((batch, 3))
    mask[0, 2] = 0.0  # model 0 trains on two rows only
    weights = train_logistic_batch(X, y, mask, learn_rate=0.5, iterations=120)
    for b in range(batch):
        # reference: plain gradient descent on this model's own rows
        keep = mask[b].astype(bool)
        single = np.zeros(3)
        for _ in range(120):
            single = single - 0.5 * logistic_gradient(single, X[b][keep], y[b][keep])
        assert np.allclose(weights[b], single, rtol=1e-9, atol=1e-12)


def test_batched_trainer_is_deterministic():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(4, 3, 2))
    y = rng.integers(0, 2, size=(4, 3)).astype(float)
    mask = np.ones((4, 3))
    a = train_logistic_batch(X, y, mask)
    b = train_logistic_batch(X, y, mask)
    assert np.array_equal(a, b)


def test_stacked_batch_is_bitwise_the_concatenation_of_its_parts():
    # each model's weights come from its own row alone, at any batch size
    rng = np.random.default_rng(15)
    parts, size = 64, 99
    X = rng.normal(size=(parts * size, 3, 2))
    y = rng.integers(0, 2, size=(parts * size, 3)).astype(float)
    mask = np.ones((parts * size, 3))
    mask[::size, 2] = 0.0  # each part's first model trains on two rows

    def fit(lo, hi):
        return train_logistic_batch(X[lo:hi], y[lo:hi], mask[lo:hi], 0.1, 50)

    whole = fit(0, parts * size)
    assert whole.tobytes() == np.concatenate(
        [fit(lo, lo + size) for lo in range(0, parts * size, size)]).tobytes()
    assert whole[:size].tobytes() == np.concatenate(
        [fit(lo, lo + 1) for lo in range(size)]).tobytes()
