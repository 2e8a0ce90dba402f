"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps lalearn's public functions in the modules that look them
up (``lalearn.training.train_forest``, ``lalearn.harness.split``, ...) and
the public prediction methods of ``ForestModel``.  Each wrapped call adds
one span ``[name, start, end, parent, attrs, error]`` to a list kept in
memory; the per-layer table is derived from those spans after the run.
``derive_seed`` is only counted, because a span would cost as much as the
call itself, and so is ``parallel_map``, whose tasks run in the caller's
span when ``workers`` is 1.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter
from statistics import median

import numpy as np

PREDICT_METHODS = ("tree_predictions_batch", "tree_predictions", "predict_proba_batch",
                   "predict_proba", "predict_regression_batch", "predict_regression")
SINGLE_ROW_METHODS = ("tree_predictions", "predict_proba", "predict_regression")
ARTIFACT_WRITERS = ("curve_to_csv", "curve_to_json", "selection_traces_to_csv",
                    "summary_to_csv", "motivation_to_csv", "histogram_to_csv",
                    "importance_report_to_csv")
SEED_MODULES = ("seeding", "forest", "data", "training", "harness", "cli")

# Functions that leave their own span; ``.errors`` is reported for each.
SPAN_NAMES = (
    "cli", "forest.fit_classifier", "forest.fit_regressor", "forest.predict",
    "forest.oob_accuracy", "features.classifier_state", "strategies.select_lal",
    "strategies.select_uncertainty", "strategies.io", "training.mc_cell",
    "training.grown_split", "harness.run_al",
    "harness.motivation", "logistic.train_batch", "data.generate", "metrics.evaluate",
    "artifacts.write",
)

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    [(f"forest.fit_{kind}.{m}", unit, "lower")
     for kind in ("classifier", "regressor")
     for m, unit in (("calls", "count"), ("self_s", "s"), ("rows", "count"),
                     ("nodes", "count"))]
    + [("forest.predict.calls", "count", "lower"), ("forest.predict.self_s", "s", "lower"),
       ("forest.predict.tree_rows", "count", "lower"),
       ("forest.predict.single_row_calls", "count", "lower"),
       ("forest.predict.ns_per_tree_row", "ns", "lower"),
       ("forest.oob_accuracy.calls", "count", "lower"),
       ("forest.oob_accuracy.self_s", "s", "lower"),
       ("seeding.derive_seed.calls", "count", "lower"),
       ("features.classifier_state.calls", "count", "lower"),
       ("features.classifier_state.self_s", "s", "lower"),
       ("strategies.select_lal.calls", "count", "lower"),
       ("strategies.select_lal.self_s", "s", "lower"),
       ("strategies.select_lal.candidates", "count", "lower"),
       ("strategies.select_lal.p50_ms", "ms", "lower"),
       ("strategies.select_lal.p90_ms", "ms", "lower"),
       ("strategies.select_uncertainty.calls", "count", "lower"),
       ("strategies.select_uncertainty.self_s", "s", "lower"),
       ("strategies.select_uncertainty.candidates", "count", "lower"),
       ("strategies.io.self_s", "s", "lower"), ("strategies.io.bytes", "bytes", "lower"),
       ("training.mc_cell.calls", "count", "lower"), ("training.mc_cell.self_s", "s", "lower"),
       ("training.mc_cell.rows", "count", "lower"),
       ("training.grown_split.calls", "count", "lower"),
       ("training.grown_split.self_s", "s", "lower"),
       ("training.grown_split.steps", "count", "lower"),
       ("training.rows_per_forest", "ratio", "higher"),
       ("parallel.parallel_map.calls", "count", "lower"),
       ("parallel.parallel_map.tasks", "count", "lower"),
       ("harness.run_al.calls", "count", "lower"), ("harness.run_al.self_s", "s", "lower"),
       ("harness.run_al.steps", "count", "lower"),
       ("harness.motivation.self_s", "s", "lower"),
       ("logistic.train_batch.calls", "count", "lower"),
       ("logistic.train_batch.self_s", "s", "lower"),
       ("logistic.train_batch.models", "count", "lower"),
       ("data.generate.calls", "count", "lower"), ("data.generate.self_s", "s", "lower"),
       ("data.generate.rows", "count", "lower"),
       ("metrics.evaluate.calls", "count", "lower"), ("metrics.evaluate.self_s", "s", "lower"),
       ("artifacts.write.calls", "count", "lower"), ("artifacts.write.self_s", "s", "lower"),
       ("artifacts.write.bytes", "bytes", "lower"),
       ("cli.self_s", "s", "lower")]
    + [(f"{name}.errors", "count", "lower")
       for name in SPAN_NAMES + ("seeding.derive_seed", "parallel.parallel_map")]
    + [("trace.wall_s", "s", "lower"), ("trace.self_coverage", "ratio", "higher"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _fit_name(args, kwargs) -> str:
    config = args[2] if len(args) > 2 else kwargs.get("config")
    mode = getattr(config, "mode", "classification")
    return "forest.fit_regressor" if mode == "regression" else "forest.fit_classifier"


class Tracer:
    """Records spans of lalearn calls while installed.

    ``install`` swaps wrappers into the lalearn modules; ``uninstall``
    puts the original attributes back, so untraced runs execute the
    program unchanged.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ---- wrapping -------------------------------------------------------

    def _wrap(self, fn, name, attrs=None):
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name, size=None):
        counts, calls, errors = self.counts, f"{name}.calls", f"{name}.errors"

        def counted(*args, **kwargs):
            counts[calls] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise
            if size is not None:
                for key, value in size(result).items():
                    counts[f"{name}.{key}"] += value
            return result

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr, make):
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _targets(self):
        mod = {name: importlib.import_module(f"lalearn.{name}")
               for name in ("cli", "data", "forest", "harness", "training", "strategies",
                            "artifacts", "seeding")}
        model = mod["forest"].ForestModel
        fit = (_fit_name, lambda a, k, r: {"rows": _rows(a[0]), "nodes": len(r.feature)})
        generated = ("data.generate", lambda a, k, r: {"rows": len(r)})
        split = ("data.generate", lambda a, k, r: {"rows": len(a[0])})
        io_save = ("strategies.io", lambda a, k, r: {"bytes": _file_bytes(a[1])})
        io_load = ("strategies.io", lambda a, k, r: {"bytes": _file_bytes(a[0])})
        yield mod["training"], "train_forest", fit
        yield mod["harness"], "train_forest", fit
        for method in PREDICT_METHODS:
            single = method in SINGLE_ROW_METHODS
            yield model, method, ("forest.predict", lambda a, k, r, single=single: {
                "rows": 1 if single else _rows(a[1]), "trees": a[0].n_trees})
        yield model, "oob_accuracy", ("forest.oob_accuracy", None)
        yield mod["training"], "classifier_state", ("features.classifier_state", None)
        for owner in (mod["strategies"], mod["training"]):
            yield owner, "select_lal", ("strategies.select_lal",
                                        lambda a, k, r: {"candidates": a[2].n_unlabeled})
        yield mod["strategies"], "select_uncertainty", (
            "strategies.select_uncertainty", lambda a, k, r: {"candidates": a[1].n_unlabeled})
        yield mod["cli"], "save_strategy", io_save
        yield mod["cli"], "load_strategy", io_load
        yield mod["training"], "data_monte_carlo", ("training.mc_cell",
                                                    lambda a, k, r: {"rows": len(r)})
        yield mod["training"].StrategyGrownSplit, "__call__", (
            "training.grown_split", lambda a, k, r: {"steps": a[2] - a[0].start_size})
        yield mod["harness"], "run_al", ("harness.run_al", lambda a, k, r: {"steps": a[3]})
        yield mod["cli"], "motivation_experiment", ("harness.motivation", None)
        yield mod["harness"], "train_logistic_batch", (
            "logistic.train_batch", lambda a, k, r: {"models": len(r)})
        for gen in ("gen_gaussian_clouds", "gen_checkerboard", "gen_banana"):
            yield mod["cli"], gen, generated
        yield mod["training"], "gen_gaussian_clouds", generated
        # motivate imports gen_gaussian_clouds from lalearn.data inside the function
        yield mod["data"], "gen_gaussian_clouds", generated
        yield mod["cli"], "split", split
        yield mod["harness"], "split", split
        yield mod["harness"], "evaluate_probability_metric", ("metrics.evaluate", None)
        yield mod["training"], "loss_from_metric", ("metrics.evaluate", None)
        for writer in ARTIFACT_WRITERS:  # every writer takes the path last
            yield mod["artifacts"], writer, ("artifacts.write", lambda a, k, r: {
                "bytes": _file_bytes(k["path"] if "path" in k else a[-1])})
        for name in SEED_MODULES:
            yield mod[name], "derive_seed", ("seeding.derive_seed", None, "count")
        for owner in (mod["training"], mod["harness"]):
            yield owner, "parallel_map", ("parallel.parallel_map",
                                          lambda r: {"tasks": len(r)}, "count")

    def install(self) -> None:
        """Wrap every traced lalearn function; a missing one is listed in ``missing``."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for owner, attr, (name, attrs, *count) in self._targets():
            wrap = self._count if count else self._wrap
            self._patch(owner, attr, lambda fn, n=name, a=attrs, w=wrap: w(fn, n, a))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def root(self, fn):
        """Wrap the CLI entry point itself as the root span ``cli``."""
        return self._wrap(fn, "cli")

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and reset both."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


# ---- deriving the per-layer table ------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def layer_metrics(ops: list[tuple[list[list], Counter, float, float]],
                  untraced_wall: list[float]) -> dict:
    """Per-op means of the per-layer metrics over traced ops.

    ``ops`` holds ``(spans, counts, wall seconds, speed factor)`` for each
    traced op; times are scaled by the op's factor to the reference speed,
    like ``untraced_wall``, the scaled wall seconds of untraced ops.
    """
    totals: dict[str, float] = {name: 0.0 for name, _, _ in LAYER_METRICS}
    select_ms: list[float] = []
    self_sum = 0.0
    for spans, counts, wall, factor in ops:
        own = self_times(spans)
        self_sum += sum(own) / wall
        own = [t * factor for t in own]
        for key, value in counts.items():
            totals[key] += value
        for i, (name, start, end, parent, attrs, error) in enumerate(spans):
            attrs = attrs or {}
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + own[i]
            totals[f"{name}.errors"] += error
            if name == "forest.predict":
                if parent >= 0 and spans[parent][0] == "forest.predict":
                    continue  # nested predict: counted with the outer call
                totals["forest.predict.calls"] += 1
                totals["forest.predict.tree_rows"] += attrs["rows"] * attrs["trees"]
                totals["forest.predict.single_row_calls"] += attrs["rows"] == 1
                continue
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0.0) + 1
            for key, value in attrs.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0.0) + value
            if name == "strategies.select_lal":
                select_ms.append((end - start) * factor * 1e3)
    n = len(ops)
    out = {name: totals[name] / n for name, _, _ in LAYER_METRICS}
    fits = totals["forest.fit_classifier.calls"]
    out["training.rows_per_forest"] = totals["training.mc_cell.rows"] / fits if fits else 0.0
    rows = totals["forest.predict.tree_rows"]
    out["forest.predict.ns_per_tree_row"] = (totals["forest.predict.self_s"] * 1e9 / rows
                                            if rows else 0.0)
    if select_ms:
        out["strategies.select_lal.p50_ms"] = float(np.percentile(select_ms, 50))
        out["strategies.select_lal.p90_ms"] = float(np.percentile(select_ms, 90))
    traced_wall = [wall * factor for _, _, wall, factor in ops]
    out["trace.wall_s"] = median(traced_wall)
    out["trace.self_coverage"] = self_sum / n
    out["trace.overhead_ratio"] = median(traced_wall) / median(untraced_wall)
    return out


def dump_spans(ops: list[tuple[list[list], Counter, float, float]], path) -> None:
    """Write the recorded spans, one JSON line per span, grouped by op."""
    with open(path, "w", encoding="utf-8") as fh:
        for op, (spans, counts, wall, factor) in enumerate(ops):
            fh.write(json.dumps({"op": op, "wall_s": wall, "speed_factor": factor,
                                 "counts": counts}) + "\n")
            for i, (name, start, end, parent, attrs, error) in enumerate(spans):
                fh.write(json.dumps({"op": op, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "attrs": attrs or {},
                                     "error": error}) + "\n")


def print_table(metrics: dict, units: dict, out=sys.stdout) -> None:
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>16.6g}  {units[name]}", file=out)
