"""Self-test of the benchmark at tiny sizes; no timing gates.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_spec_lists_the_benchmark_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [tuple(m) for m in layers.LAYER_METRICS]
    assert SPEC["end_to_end"][0]["name"] == "setup_s"


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    code, out, err = _bench(workload, trace)
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, err
    assert result["attempted"] >= 3
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        coverage = result["metrics"]["trace.self_coverage"]["value"]
        assert 0.99 < coverage <= 1.0 + 1e-9
        assert result["metrics"]["cli.errors"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    code, out, err = _bench("motivate", 0, cwd=tmp_path)
    assert code != 0
    assert out == ""
    assert "no lalearn sources" in err


# ---- the output checks reject broken artifacts ------------------------------


def _tiny_op(kind, tmp_path):
    from lalearn.cli import main

    workload = kind(tmp_path, seed=3, scale="tiny")
    workload.write_inputs()
    assert main(workload.argv()) == 0
    return workload


def test_strategy_check_rejects_non_finite_trees_and_wrong_rows(tmp_path):
    workload = _tiny_op(workloads.BuildIterative, tmp_path)
    assert workload.validate({}) == []
    doc = json.loads(workload.output.read_text())
    doc["training_metadata"]["rows"] += 1
    node = doc["regressor"]["trees"][0]
    while "value" not in node:
        node = node["left"]
    node["value"] = float("nan")
    workload.output.write_text(json.dumps(doc))
    problems = workload.validate({})
    assert any("rows" in p for p in problems)
    assert any("non-finite" in p for p in problems)


def test_curve_check_rejects_values_outside_the_unit_interval(tmp_path):
    workload = _tiny_op(workloads.AlRun, tmp_path)
    assert workload.validate({}) == []
    path = workload.out / "random_curve.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "1.5"
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    assert any("outside [0, 1]" in p for p in workload.validate({}))


def test_motivation_check_rejects_wrong_bin_counts(tmp_path):
    from lalearn import cli

    captured = {}
    original = cli.motivation_experiment
    cli.motivation_experiment = lambda *a, **k: captured.setdefault("motivation",
                                                                    original(*a, **k))
    try:
        workload = _tiny_op(workloads.Motivate, tmp_path)
    finally:
        cli.motivation_experiment = original
    assert workload.validate(captured) == []
    captured["motivation"].counts[0] += 1
    assert any("bin counts" in p for p in workload.validate(captured))
    assert workload.validate({}) == ["motivate returned no curve"]


def test_fixture_matches_its_recorded_digest():
    recorded = workloads.recorded_digests()["fixtures"]
    assert workloads.sha256(workloads.FIXTURE_STRATEGY) == recorded["lal_iterative.json"]
    assert workloads.check_strategy(workloads.FIXTURE_STRATEGY, 2400, 100) == []
