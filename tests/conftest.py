"""Shared fixtures: acceptance-scale strategies built once per session."""

import pytest

from lalearn.forest import ForestConfig, regressor_config
from lalearn.training import MonteCarloConfig, build_lal, cold_start_data

ACCEPTANCE_SEED = 20260808

# the classifier used throughout the acceptance benchmarks: one feature
# per split on these 2-D tasks (the floor-sqrt convention of mainstream
# random forests)
ACCEPTANCE_CLASSIFIER = ForestConfig(n_trees=50, features_per_split=1)

# simulation grid used to train the acceptance strategies: the full
# default size range with doubled initializations and candidate draws
# (12,400 simulated acquisitions), a large test set, and a regressor
# smoothed in proportion to the collected rows
ACCEPTANCE_MC = MonteCarloConfig(
    size_min=2, size_max=32, initializations=20, candidates=20,
    classifier=ACCEPTANCE_CLASSIFIER,
    regressor=regressor_config(n_trees=100, min_leaf_size=320),
    seed=ACCEPTANCE_SEED)

WORKERS = 2


def _build(method):
    train, test = cold_start_data(ACCEPTANCE_MC.seed, n_train=1000, n_test=2000)
    strategy, _ = build_lal(ACCEPTANCE_MC, train, test, method, workers=WORKERS)
    return strategy


@pytest.fixture(scope="session")
def lal_independent_2d():
    return _build("independent")


@pytest.fixture(scope="session")
def lal_iterative_2d():
    return _build("iterative")
