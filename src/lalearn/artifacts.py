"""File formats for experiment outputs.

All writers are deterministic: CSV cells follow ``atomic.write_csv``'s rule
(floats in ``repr`` form, the shortest round-trip form), JSON keys are
sorted, and row order follows canonical repetition/budget order, so
identical runs produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .atomic import read_csv, write_csv, write_json
from .harness import LearningCurve, MotivationCurve, SelectionTrace

CURVE_FORMAT = 1
SELECTION_HEADER = ["repetition", "iteration", "index", "p0"]


def curve_to_csv(curve: LearningCurve, path) -> None:
    """``budget, mean, std, rep_0..rep_{R-1}`` rows, one per budget."""
    header = ["budget", "mean", "std"] + [f"rep_{r}" for r in range(curve.repetitions)]
    write_csv(path, header, zip(curve.budgets, curve.mean(), curve.std(), *curve.traces))


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
    write_json(path, doc)


def summary_to_csv(curves: dict[str, LearningCurve], path) -> None:
    """Long-format ``strategy,budget,mean,std`` table across all curves."""
    write_csv(path, ["strategy", "budget", "mean", "std"],
              ((name, *row) for name, curve in curves.items()
               for row in zip(curve.budgets, curve.mean(), curve.std())))


def selection_traces_to_csv(traces: list[SelectionTrace], path) -> None:
    write_csv(path, SELECTION_HEADER,
              ((r, *row) for r, trace in enumerate(traces)
               for row in zip(trace.iterations, trace.indices, trace.probabilities)))


def selection_traces_from_csv(path) -> list[SelectionTrace]:
    """Traces written by ``selection_traces_to_csv``; errors name the file and line."""
    header, lines = read_csv(path)
    if header != SELECTION_HEADER:
        raise ValueError(f"{path}: not a selection trace file")
    rows: dict[int, list[tuple[int, int, float]]] = {}
    for lineno, cells in lines:
        try:
            rep, it, idx, p = int(cells[0]), int(cells[1]), int(cells[2]), float(cells[3])
        except ValueError:
            raise ValueError(f"{path} line {lineno}: non-numeric cell in "
                             f"{','.join(cells).strip()!r}") from None
        if not 0.0 <= p <= 1.0:  # also rejects nan
            raise ValueError(f"{path} line {lineno}: p0 {cells[3]!r} is not in [0, 1]")
        if rep < 0:
            raise ValueError(f"{path} line {lineno}: repetition {rep} is negative")
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
    write_csv(path, ["p0_bin", "mean_delta"], zip(curve.bin_centers, curve.mean_delta))


def histogram_to_csv(counts: np.ndarray, edges: np.ndarray, path) -> None:
    write_csv(path, ["bin_left", "bin_right", "count"],
              ((edges[j], edges[j + 1], int(count)) for j, count in enumerate(counts)))


def importance_report_to_csv(report: list[tuple[str, float]], path) -> None:
    write_csv(path, ["feature", "importance"], report)
