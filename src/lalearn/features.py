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


def classifier_state(model: ForestModel, pool: PoolState,
                     dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Classifier state and every candidate's p0, from one read of ``dataset``.

    Returns ``(phi, p0)``.  ``phi`` holds, in order: class-0 proportion of
    the labeled set, out-of-bag accuracy, population variance of the
    feature-importance vector, mean over the unlabeled pool of the
    across-tree prediction variance, average tree depth, and labeled-set
    size.  ``p0[i]`` is the class-0 probability of ``pool.unlabeled[i]``,
    bit for bit what ``model.predict_proba_batch`` gives that row.  The
    model must be the one trained on the current labeled set, which with
    the pool partitions ``dataset``: the labeled rows' cells of the one
    read give the out-of-bag votes, the pool's the variance and p0.
    """
    if pool.n_unlabeled == 0:
        raise ValueError("unlabeled pool is empty; stop the active learning loop")
    labels = dataset.labels[pool.labeled]
    leaf, cell = model.tree_predictions_batch(dataset.features)
    # reduce per cell, then index by cell: the cell matrix has at least
    # two columns, so each cell gets the tree-order bits of its rows
    in_pool = cell[pool.unlabeled]
    phi = np.array([np.mean(labels == 0), model.oob_accuracy(leaf, cell[pool.labeled], labels),
                    model.feature_importances().var(), leaf.var(axis=0)[in_pool].mean(),
                    model.avg_tree_depth(), pool.n_labeled], dtype=np.float64)
    if not np.all(np.isfinite(phi)):
        raise ValueError("non-finite classifier state")
    return phi, leaf.mean(axis=0)[in_pool]


def candidate_states(phi, psis) -> np.ndarray:
    """States for many candidates sharing one classifier state: (n, 7)."""
    phi = np.asarray(phi, dtype=np.float64)
    psis = np.asarray(psis, dtype=np.float64).reshape(-1, 1)
    return np.hstack([np.broadcast_to(phi, (len(psis), len(phi))), psis])
