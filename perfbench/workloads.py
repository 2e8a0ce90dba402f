"""The benchmark's workloads: CLI arguments, inputs and output checks.

Each workload drives one lalearn command through ``lalearn.cli.main`` with
``--workers 1``.  Inputs are written from the workload seed; every op is
then checked by validating the artifacts it wrote.  ``full`` is the
measured scale and ``tiny`` the scale of the warm-up op and the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
FIXTURE_STRATEGY = FIXTURES / "lal_iterative.json"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0

FEATURE_SCHEMA = [
    "proportion_class0_in_labeled", "oob_accuracy", "variance_of_feature_importances",
    "forest_variance_on_unlabeled", "average_tree_depth", "labeled_size",
    "predicted_probability_class0",
]
CLASSIFIER = {"n_trees": 50, "features_per_split": 1}


class SetupError(Exception):
    """The benchmark cannot run here: sources or inputs are missing or altered."""


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _finite(value, lo=-math.inf, hi=math.inf) -> bool:
    return math.isfinite(value) and lo <= value <= hi


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class Workload:
    """One CLI command at one scale, writing into ``workdir``."""

    name = "abstract"
    unit = "ops"

    def __init__(self, workdir: Path, seed: int, scale: str = "full"):
        self.workdir = Path(workdir)
        self.seed = seed
        self.params = dict(self.SCALES[scale])

    def write_inputs(self) -> None:
        """Write the config files the op reads; checks inputs it loads."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def argv(self) -> list[str]:
        raise NotImplementedError

    def work(self) -> int:
        """Work units per op: acquisitions, queries or repetitions."""
        raise NotImplementedError

    def artifacts(self) -> list[Path]:
        raise NotImplementedError

    def validate(self, captured: dict) -> list[str]:
        """Problems found in the op's outputs; empty when they are valid."""
        raise NotImplementedError

    def _write_json(self, filename: str, doc: dict) -> Path:
        path = self.workdir / filename
        path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        return path


class BuildIterative(Workload):
    """``build-strategy`` with ``method: iterative`` on a cold start."""

    name = "build-iterative"
    unit = "acquisitions"
    SCALES = {
        # the paper-scale grid with one initialization per size instead of
        # eight; the regressor leaf size shrinks by the same factor (80 / 8)
        # so the regressor keeps its depth
        "full": {"size_min": 2, "size_max": 16, "initializations": 1, "candidates": 20,
                 "classifier": CLASSIFIER,
                 "regressor": {"n_trees": 100, "min_leaf_size": 10},
                 "n_train": 1000, "n_test": 1000},
        "tiny": {"size_min": 2, "size_max": 4, "initializations": 1, "candidates": 3,
                 "classifier": {"n_trees": 5, "features_per_split": 1},
                 "regressor": {"n_trees": 5, "min_leaf_size": 2},
                 "n_train": 60, "n_test": 60},
    }

    @property
    def output(self) -> Path:
        return self.workdir / "strategy.json"

    def write_inputs(self) -> None:
        super().write_inputs()
        p = self.params
        self.config = self._write_json("build.json", {
            "config_format": 1, "seed": self.seed, "method": "iterative",
            "size_min": p["size_min"], "size_max": p["size_max"],
            "initializations": p["initializations"], "candidates": p["candidates"],
            "classifier": p["classifier"], "regressor": p["regressor"],
            "representative": {"cold_start": {"n_train": p["n_train"],
                                              "n_test": p["n_test"]}},
        })

    def argv(self) -> list[str]:
        return ["build-strategy", str(self.config), "--output", str(self.output),
                "--workers", "1", "--force"]

    def work(self) -> int:
        p = self.params
        return (p["size_max"] - p["size_min"] + 1) * p["initializations"] * p["candidates"]

    def artifacts(self) -> list[Path]:
        return [self.output]

    def validate(self, captured: dict) -> list[str]:
        return check_strategy(self.output, self.work(), self.params["regressor"]["n_trees"])


class AlRun(Workload):
    """``run`` of random, uncertainty and a fixed LAL strategy on a checkerboard."""

    name = "al-run"
    unit = "queries"
    STRATEGY_NAMES = ("random", "uncertainty", "lal_iterative")
    SCALES = {
        # the paper-scale run with one repetition instead of ten
        "full": {"n": 2000, "budget": 50, "repetitions": 1},
        "tiny": {"n": 200, "budget": 3, "repetitions": 1},
    }

    def write_inputs(self) -> None:
        super().write_inputs()
        expected = recorded_digests()["fixtures"][FIXTURE_STRATEGY.name]
        if sha256(FIXTURE_STRATEGY) != expected:
            raise SetupError(f"{FIXTURE_STRATEGY} does not match its recorded SHA-256")
        from lalearn.strategies import load_strategy

        if load_strategy(FIXTURE_STRATEGY).kind != "lal":
            raise SetupError(f"{FIXTURE_STRATEGY} is not a learned strategy")
        p = self.params
        self.out = self.workdir / "out"
        self.config = self._write_json("run.json", {
            "config_format": 1, "seed": self.seed, "budget": p["budget"],
            "repetitions": p["repetitions"], "metric": "accuracy",
            "strategies": ["random", "uncertainty", str(FIXTURE_STRATEGY)],
            "dataset": {"generator": "checkerboard", "k": 2, "n": p["n"]},
            "classifier": CLASSIFIER,
        })

    def argv(self) -> list[str]:
        return ["run", str(self.config), "--output-dir", str(self.out),
                "--workers", "1", "--force"]

    def work(self) -> int:
        return len(self.STRATEGY_NAMES) * self.params["repetitions"] * self.params["budget"]

    def artifacts(self) -> list[Path]:
        files = [self.out / "summary.csv"]
        for name in self.STRATEGY_NAMES:
            files += [self.out / f"{name}_curve.csv", self.out / f"{name}_curve.json",
                      self.out / f"{name}_selections.csv"]
        return files

    def validate(self, captured: dict) -> list[str]:
        return check_curves(self.out, self.STRATEGY_NAMES, self.params["budget"],
                            self.params["repetitions"])


class Motivate(Workload):
    """``motivate --balanced``: batched logistic fits on fresh two-cloud data."""

    name = "motivate"
    unit = "repetitions"
    POOL_SIZE = 100
    BINS = 20
    SCALES = {
        "full": {"repetitions": 500, "test_size": 5000},
        "tiny": {"repetitions": 3, "test_size": 200},
    }

    @property
    def output(self) -> Path:
        return self.workdir / "motivation.csv"

    def argv(self) -> list[str]:
        p = self.params
        return ["motivate", "--balanced", "--repetitions", str(p["repetitions"]),
                "--seed", str(self.seed), "--bins", str(self.BINS),
                "--pool-size", str(self.POOL_SIZE), "--test-size", str(p["test_size"]),
                "--out", str(self.output), "--workers", "1", "--force"]

    def work(self) -> int:
        return self.params["repetitions"]

    def artifacts(self) -> list[Path]:
        return [self.output]

    def validate(self, captured: dict) -> list[str]:
        curve = captured.get("motivation")
        if curve is None:
            return ["motivate returned no curve"]
        return check_motivation(self.output, curve,
                                self.params["repetitions"] * (self.POOL_SIZE - 2), self.BINS)


WORKLOADS = {w.name: w for w in (BuildIterative, AlRun, Motivate)}


# ---- output checks ------------------------------------------------------------


def check_strategy(path, rows: int, n_trees: int) -> list[str]:
    """Schema, row count and finite trees of a learned strategy file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        problems = []
        if (doc["format"], doc["kind"], doc["provenance"]) != (1, "lal", "iterative"):
            problems.append("strategy header is not format 1, kind lal, iterative")
        if doc["feature_schema"] != FEATURE_SCHEMA:
            problems.append("strategy feature schema differs")
        if doc["training_metadata"]["rows"] != rows:
            problems.append(f"strategy was fit on {doc['training_metadata']['rows']} rows, "
                            f"expected {rows}")
        forest = doc["regressor"]
        if (forest["mode"], forest["n_features"]) != ("regression", len(FEATURE_SCHEMA)):
            problems.append("regressor is not a 7-feature regression forest")
        if len(forest["trees"]) != n_trees:
            problems.append(f"regressor has {len(forest['trees'])} trees, expected {n_trees}")
        if not all(_finite(v) for v in forest["importances"]):
            problems.append("regressor importances are not finite")
        stack = list(forest["trees"])
        while stack:
            node = stack.pop()
            if "value" in node:
                if not (_finite(node["value"]) and node["count"] >= 1):
                    problems.append("regressor has a non-finite or empty leaf")
                    break
            elif (_finite(node["threshold"]) and 0 <= node["feature"] < len(FEATURE_SCHEMA)):
                stack += [node["left"], node["right"]]
            else:
                problems.append("regressor has an invalid split node")
                break
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable strategy {path}: {exc!r}"]


def check_curves(out: Path, names, budget: int, repetitions: int) -> list[str]:
    """Curves, selections and summary of a ``run``: shapes and values in [0, 1]."""
    problems = []
    try:
        for name in names:
            header, rows = _read_csv(out / f"{name}_curve.csv")
            if header != ["budget", "mean", "std"] + [f"rep_{r}" for r in range(repetitions)]:
                problems.append(f"{name}_curve.csv has header {header}")
            if [int(r[0]) for r in rows] != list(range(budget + 1)):
                problems.append(f"{name}_curve.csv does not cover budgets 0..{budget}")
            if not all(_finite(float(v), 0.0, 1.0) for r in rows for v in r[1:]):
                problems.append(f"{name}_curve.csv has values outside [0, 1]")
            doc = json.loads((out / f"{name}_curve.json").read_text(encoding="utf-8"))
            traces = doc["traces"]
            if (doc["repetitions"] != repetitions or doc["budgets"] != list(range(budget + 1))
                    or len(traces) != repetitions
                    or any(len(t) != budget + 1 for t in traces)):
                problems.append(f"{name}_curve.json has the wrong shape")
            if not all(_finite(v, 0.0, 1.0) for t in traces for v in t):
                problems.append(f"{name}_curve.json has values outside [0, 1]")
            header, rows = _read_csv(out / f"{name}_selections.csv")
            picked = {(r[0], r[2]) for r in rows}
            if len(rows) != budget * repetitions or len(picked) != len(rows):
                problems.append(f"{name}_selections.csv has {len(rows)} rows or repeats")
            if not all(_finite(float(r[3]), 0.0, 1.0) for r in rows):
                problems.append(f"{name}_selections.csv has p0 outside [0, 1]")
        header, rows = _read_csv(out / "summary.csv")
        if len(rows) != len(names) * (budget + 1):
            problems.append(f"summary.csv has {len(rows)} rows")
        if not all(_finite(float(v), 0.0, 1.0) for r in rows for v in r[2:]):
            problems.append("summary.csv has values outside [0, 1]")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable run output in {out}: {exc!r}")
    return problems


def check_motivation(path, curve, total: int, bins: int) -> list[str]:
    """Bin counts sum to repetitions x candidates; occupied bins are finite."""
    problems = []
    counts = [int(c) for c in curve.counts]
    if sum(counts) != total:
        problems.append(f"motivation bin counts sum to {sum(counts)}, expected {total}")
    try:
        header, rows = _read_csv(path)
        if header != ["p0_bin", "mean_delta"] or len(rows) != bins:
            problems.append(f"{path} has header {header} and {len(rows)} rows")
        for (center, delta), count in zip(rows, counts):
            if not _finite(float(center), 0.0, 1.0):
                problems.append(f"bin center {center} is outside [0, 1]")
            if count and not _finite(float(delta), -1.0, 1.0):
                problems.append(f"occupied bin {center} has mean delta {delta}")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable motivation output {path}: {exc!r}")
    return problems
