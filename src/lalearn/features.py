"""The learning-state vector fed to the error-reduction regressor.

A state has six classifier features and one candidate feature, in a frozen
order shared by strategy training and strategy application; serialized
strategies embed the schema and refuse to run against a different one.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, PoolState
from .forest import ForestModel

FEATURE_NAMES = (
    "proportion_class0_in_labeled",
    "oob_accuracy",
    "variance_of_feature_importances",
    "forest_variance_on_unlabeled",
    "average_tree_depth",
    "labeled_size",
    "predicted_probability_class0",
)


def classifier_state(model: ForestModel, pool: PoolState, dataset: Dataset,
                     pool_tree_predictions: np.ndarray) -> np.ndarray:
    """Classifier-state features for the current labeled/unlabeled split.

    Returns, in order: class-0 proportion of the labeled set, out-of-bag
    accuracy, population variance of the feature-importance vector, mean
    over the unlabeled pool of the across-tree prediction variance,
    average tree depth, and labeled-set size.  The model must be the one
    trained on the current labeled set (sorted by dataset index), and
    ``pool_tree_predictions`` its per-tree predictions on the unlabeled
    pool, ``model.tree_predictions_batch(dataset.features[pool.unlabeled])``.
    """
    if pool.n_unlabeled == 0:
        raise ValueError("unlabeled pool is empty; stop the active learning loop")
    labeled = sorted(pool.labeled)
    labels = dataset.labels[labeled]
    proportion0 = float(np.mean(labels == 0))
    oob = model.oob_accuracy(dataset.features[labeled], labels)
    importance_var = float(model.feature_importances().var())
    forest_var = float(pool_tree_predictions.var(axis=0).mean())
    phi = np.array([proportion0, oob, importance_var, forest_var,
                    model.avg_tree_depth(), float(pool.n_labeled)])
    if not np.all(np.isfinite(phi)):
        raise ValueError("non-finite classifier state")
    return phi


def candidate_states(phi, psis) -> np.ndarray:
    """States for many candidates sharing one classifier state: (n, 7)."""
    phi = np.asarray(phi, dtype=np.float64)
    psis = np.asarray(psis, dtype=np.float64).reshape(-1, 1)
    return np.hstack([np.broadcast_to(phi, (len(psis), len(phi))), psis])
