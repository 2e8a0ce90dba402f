"""Golden digests of small ``build-strategy`` and ``motivate`` artifacts.

Each case runs one tiny build or motivation study through the CLI and
compares the SHA-256 of its files with digests recorded from the reference
implementation.  A refactor of the builders, the forest, the Monte-Carlo
simulation or the motivation experiment that changes a single byte of an
artifact fails here; a change that is meant to alter the bytes must say
why and record new digests.
"""

import hashlib
import json

import pytest

from lalearn.cli import EXIT_OK, main

BASE = {
    "config_format": 1, "seed": 11,
    "size_min": 2, "size_max": 4, "initializations": 2, "candidates": 3,
    "classifier": {"n_trees": 8, "features_per_split": 1},
    "regressor": {"n_trees": 8, "min_leaf_size": 2},
}

CASES = {
    "cold_start_independent": {
        "method": "independent",
        "representative": {"cold_start": {"n_train": 60, "n_test": 50}},
    },
    "cold_start_iterative": {
        "method": "iterative",
        "representative": {"cold_start": {"n_train": 60, "n_test": 50}},
    },
    "banana_warm_start": {
        "method": "iterative",
        "representative": {"generator": "banana", "n": 120},
        "test_fraction": 0.4,
    },
}

# (strategy JSON, rows CSV)
DIGESTS = {
    "banana_warm_start": (
        "c7cef13c96b29d39270ec7474fc5a9cf46620aa51731837e0cd489f06b1ed38d",
        "c2e14d4a4238aa1c7beb4ca924bb568fcec42a47738f716ed21867a366725487"),
    "cold_start_independent": (
        "f5ad410fc2aa39fde202154b3645d9148303bdb00157ab3ebf41d64465b926bf",
        "559f851639e449d16b344a157e38ff6c1686211ed55778f022a8f488ea595471"),
    "cold_start_iterative": (
        "25256e1a4d4a0cda2b9d6a117c7e7d6b555aa9183fdc47988e9a685ad7b057a7",
        "205454c7a43af1be89d1700f317e0158eb8db8700d29bacc8ed408abb349b9ca"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_artifacts_match_recorded_digests(case, tmp_path):
    config = tmp_path / "build.json"
    config.write_text(json.dumps({**BASE, **CASES[case],
                                  "output": str(tmp_path / "strategy.json")}))
    rows = tmp_path / "rows.csv"
    assert main(["build-strategy", str(config), "--rows-out", str(rows)]) == EXIT_OK
    assert (_sha256(tmp_path / "strategy.json"), _sha256(rows)) == DIGESTS[case]


# 70 repetitions: one full motivation chunk of 64 and one partial chunk
MOTIVATE = ["motivate", "--repetitions", "70", "--seed", "21", "--test-size", "300"]

MOTIVATE_DIGESTS = {
    "--balanced": "2c754d09e25d7da6b0afe27cd29e6d303159274d8130ee6f79a2a2f8d632cf88",
    "--unbalanced": "58a39a6aae334e7f88a026fda5f47bc7e306e06e28334b0755e43d7a95d1c25e",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("flag", sorted(MOTIVATE_DIGESTS))
def test_motivate_csv_matches_recorded_digest(flag, workers, tmp_path):
    out = tmp_path / "motivation.csv"
    assert main(MOTIVATE + [flag, "--workers", workers, "--out", str(out)]) == EXIT_OK
    assert _sha256(out) == MOTIVATE_DIGESTS[flag]
