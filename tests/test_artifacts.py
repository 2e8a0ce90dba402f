"""Output file formats: exact round-trips and stable bytes."""

import json

import numpy as np
import pytest

from lalearn.artifacts import (curve_to_csv, curve_to_json, histogram_to_csv,
                               motivation_to_csv, selection_traces_from_csv,
                               selection_traces_to_csv, summary_to_csv)
from lalearn.atomic import atomic_open
from lalearn.harness import LearningCurve, MotivationCurve, SelectionTrace


def _curve():
    traces = np.array([[0.5, 0.625, 0.75], [0.5, 0.75, 1.0]])
    return LearningCurve("random", "toy", "accuracy", [0, 1, 2], traces, 7)


def test_curve_csv_layout(tmp_path):
    path = tmp_path / "curve.csv"
    curve_to_csv(_curve(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "budget,mean,std,rep_0,rep_1"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[2].split(",")[1]) == 0.6875


def test_curve_json_round_trip(tmp_path):
    path = tmp_path / "curve.json"
    curve = _curve()
    curve_to_json(curve, path)
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded["format"] == 1
    assert loaded["strategy"] == "random"
    assert loaded["metric"] == "accuracy"
    assert np.array_equal(loaded["traces"], curve.traces)
    assert np.array_equal(loaded["budgets"], curve.budgets)


def test_selection_trace_round_trip(tmp_path):
    traces = [SelectionTrace([0, 1], [4, 9], [0.5, 0.125]),
              SelectionTrace([0, 1], [2, 3], [0.75, 1.0])]
    path = tmp_path / "sel.csv"
    selection_traces_to_csv(traces, path)
    loaded = selection_traces_from_csv(path)
    assert len(loaded) == 2
    assert np.array_equal(loaded[0].indices, traces[0].indices)
    assert np.array_equal(loaded[1].probabilities, traces[1].probabilities)

    # a malformed row names the file and its line
    header = "repetition,iteration,index,p0\n"
    for body, problem in [("0,0,4,0.5\n0,1,9\n", "line 3: expected 4 cells, got 3"),
                          ("0,0,4,0.5\n0,1,x,0.1\n", "line 3: non-numeric cell"),
                          ("0,0,4,0.5\n0,1,4,0.1\n", "repetition 0: an index was queried"),
                          ("0,0,4,1.5\n0,1,9,0.1\n", "line 2: p0 '1.5' is not in [0, 1]"),
                          ("0,0,4,0.5\n0,1,9,nan\n", "line 3: p0 'nan' is not in [0, 1]"),
                          # traces that run cannot have written
                          ("0,0,3,0.5\n0,0,4,0.5\n",
                           "repetition 0: iterations must run 0 to 1 in order"),
                          ("0,1,3,0.5\n0,0,4,0.5\n",
                           "repetition 0: iterations must run 0 to 1 in order"),
                          ("0,0,3,0.5\n1,1,4,0.5\n",
                           "repetition 1: iterations must run 0 to 0 in order"),
                          ("0,-1,3,0.5\n", "repetition 0: iterations must run 0 to 0"),
                          ("0,0,3,0.5\n0,1,-4,0.5\n", "repetition 0: an index is negative"),
                          ("-1,0,3,0.5\n", "line 2: repetition -1 is negative")]:
        path.write_text(header + body)
        with pytest.raises(ValueError) as err:
            selection_traces_from_csv(path)
        assert f"{path} {problem}" in str(err.value) or f"{path}: {problem}" in str(err.value)


def test_motivation_csv(tmp_path):
    curve = MotivationCurve(np.array([0.25, 0.75]), np.array([0.001, np.nan]),
                            np.array([10, 0]))
    path = tmp_path / "mot.csv"
    motivation_to_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p0_bin,mean_delta"
    assert lines[1] == "0.25,0.001"
    assert lines[2] == "0.75,nan"


def test_histogram_csv(tmp_path):
    path = tmp_path / "hist.csv"
    histogram_to_csv(np.array([3, 0]), np.array([0.0, 0.5, 1.0]), path)
    lines = path.read_text().splitlines()
    assert lines == ["bin_left,bin_right,count", "0.0,0.5,3", "0.5,1.0,0"]


def test_summary_long_format(tmp_path):
    path = tmp_path / "summary.csv"
    summary_to_csv({"random": _curve()}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "strategy,budget,mean,std"
    assert len(lines) == 4
    assert lines[1].startswith("random,0,")


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "curve.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_open(target) as fh:
            fh.write("budget,mean\n0,")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]


def test_a_new_file_appears_only_when_complete(tmp_path):
    target = tmp_path / "new.csv"
    with atomic_open(target) as fh:
        fh.write("a\n")
        assert not target.exists()
    assert target.read_text() == "a\n"
    assert [p.name for p in tmp_path.iterdir()] == ["new.csv"]
