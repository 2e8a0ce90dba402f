"""Query-selection strategies behind one uniform ``select`` interface.

Three kinds: uniform random sampling, entropy-based uncertainty sampling,
and learned selection that ranks candidates by a regression forest's
predicted test-error reduction.  Strategies are immutable; all mutable
loop state lives in the pool.  Only a learned strategy has a file: the
two builtins are named, never filed.  A strategy file is an input like a
config, and is checked by the same reader, ``schema.read_fields``.
"""

from __future__ import annotations

import numpy as np

from .atomic import read_json, write_json
from .data import Dataset, PoolState
from .features import FEATURE_NAMES, candidate_states, classifier_state
from .forest import ForestModel, forest_from_doc, forest_to_doc
from .schema import REQUIRED, read_fields

STRATEGY_FORMAT = 1

# how a learned strategy's labeled subsets were assembled during its build
BUILD_METHODS = ("independent", "iterative")


def entropy(p):
    """Binary entropy in bits, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0.0, p * np.log2(p), 0.0) - np.where(q > 0.0, q * np.log2(q), 0.0)


def select_uncertainty(model: ForestModel, pool: PoolState, dataset: Dataset) -> int:
    """Index of the unlabeled point with maximal entropy (ties: smallest index)."""
    if pool.n_unlabeled == 0:
        raise ValueError("unlabeled pool is empty")
    p = model.predict_proba_batch(dataset.features[pool.unlabeled])
    return int(pool.unlabeled[int(np.argmax(entropy(p)))])


def select_lal(regressor: ForestModel, model: ForestModel, pool: PoolState,
               dataset: Dataset) -> int:
    """Index of the unlabeled point with maximal predicted error reduction.

    Computes the classifier state once and scores each distinct candidate
    state once with the regressor: candidates differ only in p0, and a
    forest fitted on few labels gives few distinct p0 values.  This is
    exact, because equal states reach equal leaves and a row's mean over
    trees does not depend on the batch size.  Returns the argmax (ties
    toward the smallest index).  The regressor itself rejects a forest
    that is not a regression forest over the learning state, and
    ``classifier_state`` an empty pool.
    """
    phi, p0 = classifier_state(model, pool, dataset)
    distinct, inverse = np.unique(p0, return_inverse=True)
    scores = regressor.predict_regression_batch(candidate_states(phi, distinct))
    return int(pool.unlabeled[int(np.argmax(scores[inverse]))])


class Strategy:
    """Common interface: ``select`` returns one unlabeled index."""

    kind = "abstract"

    @property
    def name(self) -> str:
        return self.kind

    def select(self, model: ForestModel, pool: PoolState, dataset: Dataset,
               rng=None) -> int:
        raise NotImplementedError


class RandomStrategy(Strategy):
    kind = "random"

    def select(self, model, pool, dataset, rng=None):
        if pool.n_unlabeled == 0:
            raise ValueError("unlabeled pool is empty")
        if rng is None:
            raise ValueError("random sampling needs an rng")
        return int(rng.choice(pool.unlabeled))


class UncertaintyStrategy(Strategy):
    kind = "uncertainty"

    def select(self, model, pool, dataset, rng=None):
        return select_uncertainty(model, pool, dataset)


class LalStrategy(Strategy):
    """Learned strategy: a regression forest over learning states."""

    kind = "lal"

    def __init__(self, regressor: ForestModel, provenance: str = "independent",
                 training_metadata: dict | None = None):
        if regressor.mode != "regression":
            raise ValueError("strategy regressor must be a regression forest")
        if regressor.n_features != len(FEATURE_NAMES):
            raise ValueError(f"strategy regressor takes {regressor.n_features} features, "
                             f"the learning state has {len(FEATURE_NAMES)}")
        if provenance not in BUILD_METHODS:
            raise ValueError(f"unknown provenance {provenance!r}")
        self.regressor = regressor
        self.provenance = provenance
        self.training_metadata = dict(training_metadata or {})

    @property
    def name(self) -> str:
        return f"lal_{self.provenance}"

    def select(self, model, pool, dataset, rng=None):
        return select_lal(self.regressor, model, pool, dataset)

    def to_doc(self) -> dict:
        return {
            "format": STRATEGY_FORMAT,
            "kind": self.kind,
            "feature_schema": list(FEATURE_NAMES),
            "provenance": self.provenance,
            "training_metadata": self.training_metadata,
            "regressor": forest_to_doc(self.regressor),
        }


# the strategies that need no file, by kind
BUILTIN_KINDS = {cls.kind: cls for cls in (RandomStrategy, UncertaintyStrategy)}

# format 1 is the only one: an integer in [1, 2)
_DOC_SCHEMA = {"format": (int, REQUIRED, STRATEGY_FORMAT, 2),
               "kind": (str, REQUIRED, (LalStrategy.kind,)),
               "feature_schema": (list, REQUIRED), "provenance": (str, REQUIRED),
               "training_metadata": (dict, {}), "regressor": (dict, REQUIRED)}


def strategy_from_doc(doc: dict) -> LalStrategy:
    """Rebuild a learned strategy from ``to_doc`` output; ``ValueError`` when malformed.

    ``read_fields`` checks the format and the kind before the other fields.
    """
    fields = read_fields(doc, _DOC_SCHEMA, "strategy", "document")
    if tuple(fields["feature_schema"]) != FEATURE_NAMES:
        raise ValueError(f"feature schema mismatch: {tuple(fields['feature_schema'])}")
    return LalStrategy(forest_from_doc(fields["regressor"]), fields["provenance"],
                       fields["training_metadata"])


def save_strategy(strategy: LalStrategy, path) -> None:
    write_json(path, strategy.to_doc())


def load_strategy(path) -> LalStrategy:
    """The strategy in the file at ``path``; ``ValueError`` naming the file when malformed."""
    doc = read_json(path)
    try:
        return strategy_from_doc(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
