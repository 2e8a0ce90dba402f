"""Smoke tests: each demo runs at its smallest flags and writes its CSVs.

A demo writes into ``output/`` next to its own file, so each runs from a
copy in a temporary directory.  ``checkerboard_adversarial`` is left out:
it builds an acceptance-scale strategy and takes over a minute even at one
repetition.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STRATEGIES = ("random", "uncertainty", "lal_independent", "lal_iterative")


@pytest.mark.parametrize("demo, flags, csvs", [
    ("error_reduction_vs_probability", ["--repetitions", "20"],
     ["error_reduction_balanced.csv", "error_reduction_class0_twice_class1.csv"]),
    ("warm_start_from_csv", ["--repetitions", "1"],
     ["crescents.csv", "warm_start_summary.csv"]),
    ("train_and_benchmark_clouds", ["--repetitions", "1"],
     [f"clouds_{name}.csv" for name in STRATEGIES] + ["clouds_summary.csv"]),
    ("analyze_strategy", ["--runs", "1"],
     ["regressor_importances.csv", "selected_p0_uncertainty.csv",
      "selected_p0_lal_iterative.csv"]),
])
def test_demo_runs_and_writes_its_csvs(tmp_path, demo, flags, csvs):
    script = tmp_path / f"{demo}.py"
    shutil.copy(ROOT / "demos" / script.name, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(script), *flags, "--workers", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    missing = [name for name in csvs if not (tmp_path / "output" / name).is_file()]
    assert not missing, f"{demo} did not write {missing}"
