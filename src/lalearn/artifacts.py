"""File formats for experiment outputs.

All writers are deterministic: floats are rendered with ``repr`` (shortest
round-trip form), JSON keys are sorted, and row order follows canonical
repetition/budget order, so identical runs produce identical bytes.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .atomic import atomic_open
from .harness import LearningCurve, MotivationCurve, SelectionTrace

CURVE_FORMAT = 1


def _f(value) -> str:
    return repr(float(value))


def curve_to_csv(curve: LearningCurve, path) -> None:
    """``budget, mean, std, rep_0..rep_{R-1}`` rows, one per budget."""
    reps = curve.repetitions
    mean, std = curve.mean(), curve.std()
    with atomic_open(path) as fh:
        fh.write("budget,mean,std," + ",".join(f"rep_{r}" for r in range(reps)) + "\n")
        for j, budget in enumerate(curve.budgets):
            row = [str(int(budget)), _f(mean[j]), _f(std[j])]
            row += [_f(v) for v in curve.traces[:, j]]
            fh.write(",".join(row) + "\n")


def curve_to_json(curve: LearningCurve, path) -> None:
    doc = {
        "format": CURVE_FORMAT,
        "strategy": curve.strategy_name,
        "dataset": curve.dataset_name,
        "metric": curve.metric,
        "master_seed": int(curve.master_seed),
        "repetitions": int(curve.repetitions),
        "budgets": [int(b) for b in curve.budgets],
        "mean": [float(v) for v in curve.mean()],
        "std": [float(v) for v in curve.std()],
        "traces": [[float(v) for v in row] for row in curve.traces],
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True)


def summary_to_csv(curves: dict[str, LearningCurve], path) -> None:
    """Long-format ``strategy,budget,mean,std`` table across all curves."""
    with atomic_open(path) as fh:
        fh.write("strategy,budget,mean,std\n")
        for name, curve in curves.items():
            mean, std = curve.mean(), curve.std()
            for j, budget in enumerate(curve.budgets):
                fh.write(f"{name},{int(budget)},{_f(mean[j])},{_f(std[j])}\n")


def selection_traces_to_csv(traces: list[SelectionTrace], path) -> None:
    with atomic_open(path) as fh:
        fh.write("repetition,iteration,index,p0\n")
        for r, trace in enumerate(traces):
            for t, idx, p in zip(trace.iterations, trace.indices, trace.probabilities):
                fh.write(f"{r},{int(t)},{int(idx)},{_f(p)}\n")


def selection_traces_from_csv(path) -> list[SelectionTrace]:
    """Traces written by ``selection_traces_to_csv``; errors name the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    with io.StringIO(text) as fh:
        header = fh.readline().rstrip("\n")
        if header != "repetition,iteration,index,p0":
            raise ValueError(f"{path}: not a selection trace file")
        rows: dict[int, list[tuple[int, int, float]]] = {}
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            cells = line.rstrip("\n").split(",")
            if len(cells) != 4:
                raise ValueError(f"{path} line {lineno}: expected 4 cells, got {len(cells)}")
            try:
                rep, it, idx, p = int(cells[0]), int(cells[1]), int(cells[2]), float(cells[3])
            except ValueError:
                raise ValueError(f"{path} line {lineno}: non-numeric cell in "
                                 f"{line.strip()!r}") from None
            if not 0.0 <= p <= 1.0:  # also rejects nan
                raise ValueError(f"{path} line {lineno}: p0 {cells[3]!r} is not in [0, 1]")
            rows.setdefault(rep, []).append((it, idx, p))
    traces = []
    for rep in sorted(rows):
        its, idxs, ps = zip(*rows[rep])
        try:
            traces.append(SelectionTrace(np.asarray(its), np.asarray(idxs), np.asarray(ps)))
        except ValueError as exc:
            raise ValueError(f"{path}: repetition {rep}: {exc}") from None
    return traces


def motivation_to_csv(curve: MotivationCurve, path) -> None:
    with atomic_open(path) as fh:
        fh.write("p0_bin,mean_delta\n")
        for center, delta in zip(curve.bin_centers, curve.mean_delta):
            fh.write(f"{_f(center)},{_f(delta)}\n")


def histogram_to_csv(counts: np.ndarray, edges: np.ndarray, path) -> None:
    with atomic_open(path) as fh:
        fh.write("bin_left,bin_right,count\n")
        for j, count in enumerate(counts):
            fh.write(f"{_f(edges[j])},{_f(edges[j + 1])},{int(count)}\n")


def importance_report_to_csv(report: list[tuple[str, float]], path) -> None:
    with atomic_open(path) as fh:
        fh.write("feature,importance\n")
        for name, weight in report:
            fh.write(f"{name},{_f(weight)}\n")
