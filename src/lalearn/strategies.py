"""Query-selection strategies behind one uniform ``select`` interface.

Three kinds: uniform random sampling, entropy-based uncertainty sampling,
and learned selection that ranks candidates by a regression forest's
predicted test-error reduction.  Strategies are immutable; all mutable
loop state lives in the pool.
"""

from __future__ import annotations

import json

import numpy as np

from .data import Dataset, PoolState
from .features import FEATURE_NAMES, candidate_states, classifier_state
from .forest import ForestModel, forest_from_doc, forest_to_doc

STRATEGY_FORMAT = 1

# how a learned strategy's labeled subsets were assembled during its build
BUILD_METHODS = ("independent", "iterative")


def entropy(p):
    """Binary entropy in bits, with 0 log 0 = 0. Accepts scalars or arrays."""
    p = np.asarray(p, dtype=np.float64)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p > 0.0, p * np.log2(p), 0.0) - np.where(q > 0.0, q * np.log2(q), 0.0)
    return float(h) if h.ndim == 0 else h


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
    toward the smallest index).
    """
    if pool.n_unlabeled == 0:
        raise ValueError("unlabeled pool is empty")
    if regressor.mode != "regression":
        raise ValueError("learned selection needs a regression forest")
    if regressor.n_features != len(FEATURE_NAMES):
        raise ValueError("regressor feature schema does not match the learning state")
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

    def to_doc(self) -> dict:
        return {"format": STRATEGY_FORMAT, "kind": self.kind}


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

    def __init__(self, regressor: ForestModel, feature_schema=FEATURE_NAMES,
                 provenance: str = "independent", training_metadata: dict | None = None):
        if regressor.mode != "regression":
            raise ValueError("strategy regressor must be a regression forest")
        if regressor.n_features != len(FEATURE_NAMES):
            raise ValueError(f"strategy regressor takes {regressor.n_features} features, "
                             f"the learning state has {len(FEATURE_NAMES)}")
        if tuple(feature_schema) != FEATURE_NAMES:
            raise ValueError(f"feature schema mismatch: {tuple(feature_schema)}")
        if provenance not in BUILD_METHODS:
            raise ValueError(f"unknown provenance {provenance!r}")
        self.regressor = regressor
        self.feature_schema = tuple(feature_schema)
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
            "feature_schema": list(self.feature_schema),
            "provenance": self.provenance,
            "training_metadata": self.training_metadata,
            "regressor": forest_to_doc(self.regressor),
        }


def strategy_from_doc(doc: dict) -> Strategy:
    """Rebuild a strategy from ``to_doc`` output; ``ValueError`` when malformed."""
    if not isinstance(doc, dict):
        raise ValueError("strategy document must be a JSON object")
    if doc.get("format") != STRATEGY_FORMAT:
        raise ValueError(f"unsupported strategy format: {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind == "random":
        return RandomStrategy()
    if kind == "uncertainty":
        return UncertaintyStrategy()
    if kind == "lal":
        missing = [key for key in ("regressor", "feature_schema", "provenance")
                   if key not in doc]
        if missing:
            raise ValueError(f"lal strategy document is missing {', '.join(missing)}")
        regressor = forest_from_doc(doc["regressor"])
        return LalStrategy(regressor, doc["feature_schema"], doc["provenance"],
                           doc.get("training_metadata"))
    raise ValueError(f"unknown strategy kind {kind!r}")


def save_strategy(strategy: Strategy, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strategy.to_doc(), fh, sort_keys=True)


def load_strategy(path) -> Strategy:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"strategy file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt strategy file {path}: {exc}")
    return strategy_from_doc(doc)
