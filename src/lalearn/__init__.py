"""Active learning laboratory.

Learned query-selection strategies (a regression forest over learning
states predicting test-error reduction), random and uncertainty baselines,
synthetic benchmark generators, and a deterministic experiment harness.

The package root exports the names of the README quick start; everything
else is imported from its submodule (``lalearn.forest``, ``lalearn.data``,
...).
"""

from .data import gen_checkerboard, split
from .harness import run_repeated
from .strategies import RandomStrategy, UncertaintyStrategy
from .training import MonteCarloConfig, build_lal, cold_start_data

__version__ = "0.1.0"
