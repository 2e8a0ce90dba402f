"""Golden digests of small artifacts of every ``lalearn`` command.

Each case runs one tiny build, benchmark, motivation study or analysis
through the CLI and compares the SHA-256 of its files with digests recorded
from the reference implementation.  A refactor of the builders, the forest,
the Monte-Carlo simulation, the motivation experiment or the artifact
writers that changes a single byte of an artifact fails here; a change that
is meant to alter the bytes must say why and record new digests.  The run
cases use generator datasets only, so no file path reaches the hashed bytes.
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


# ---- run, motivate --svg and analyze: every file each command writes ------

RUN = {
    "config_format": 1, "seed": 13, "budget": 5, "repetitions": 2,
    "dataset": {"generator": "checkerboard", "n": 120},
    "classifier": {"n_trees": 8, "features_per_split": 1},
}

# metric -> {file name: SHA-256}; the digests are the same at any --workers
RUN_DIGESTS = {
    "accuracy": {
        "curves.svg":
            "bd1b3b28be65b149fdea5ced415d7b131f50baaab7e5670287026c6658cc487a",
        "lal_iterative_curve.csv":
            "769cadbebc96c050829004d669b5b7a414b6161fd354d7577b08e022949a4c46",
        "lal_iterative_curve.json":
            "dc7691d892d112da2461ff5fcad3749d9d4538e8fc430758b2e3bb308d046bfc",
        "lal_iterative_selections.csv":
            "4b0880b28f9c4a138da7fe1b65886ebb4b0663196b87b9c7f048125c851daafb",
        "random_curve.csv":
            "dfaebee896f014c5d800fb20a687e4a5bca3b0052972ada0446e4439c6ca2ba0",
        "random_curve.json":
            "6500798c641fbfd1ad908778cc7b374344eee2579a42077a31ec4b3ac84d094a",
        "random_selections.csv":
            "9383e27b85cb0ef035c25586225e4d4a7e972296a769a92967c5608bfd8f0af5",
        "summary.csv":
            "23131d396c017b88b5df5d2a968a4d2226b8f81174caed8f10169b0e145beee8",
        "uncertainty_curve.csv":
            "e2a74a6626cb311dc62178249e0b0d5685058573dae52f05a25a0b3925aec0ff",
        "uncertainty_curve.json":
            "11e656b187600d22163091cebc18e4a1dcded8ea0c2ec431ccbf007ac60cbfdf",
        "uncertainty_selections.csv":
            "0bca25d45d23116b5dcf7cf81e8c85fdab02105a49b1ac6d6aa1e64c5a0fc056",
    },
    "auc": {
        "curves.svg":
            "5033fe7e81ca4dca08ebcf85bd44d091d7f956bdf846b0d6805099db6ce2b26d",
        "lal_iterative_curve.csv":
            "32bd976aeefd94496aee1d6162cc9e9c1f00a7a1a3c284e17fa7c57497185237",
        "lal_iterative_curve.json":
            "505349ee0f1f1e685aa6801353805e215a8cd4ffceeae794c5c946802632a85e",
        "lal_iterative_selections.csv":
            "4b0880b28f9c4a138da7fe1b65886ebb4b0663196b87b9c7f048125c851daafb",
        "random_curve.csv":
            "294f116f6ff1e352b5f6b46ab95e7ef2ab6ac9a2a65d873018b1e87a9b4fb1b5",
        "random_curve.json":
            "e618d8f93a4d4c2d0580348968c0238a01b181bc8fd6a1e22335a754a6f6135a",
        "random_selections.csv":
            "9383e27b85cb0ef035c25586225e4d4a7e972296a769a92967c5608bfd8f0af5",
        "summary.csv":
            "4ccbb0a0c469a7f734c1c6573f02df07ad83ca0e1c1808342467de6bd363ff8c",
        "uncertainty_curve.csv":
            "1dbf9b463683f38c358510cc21ec640d45387438d9e18e4d667cc9214d83a3a4",
        "uncertainty_curve.json":
            "8ae93338ebb7995c00f5783b3e22cad2a4dd37d490deb8a49b4eb83d2b6026fd",
        "uncertainty_selections.csv":
            "0bca25d45d23116b5dcf7cf81e8c85fdab02105a49b1ac6d6aa1e64c5a0fc056",
    },
}

MOTIVATE_SVG_DIGESTS = {
    "motivation.csv":
        "2c754d09e25d7da6b0afe27cd29e6d303159274d8130ee6f79a2a2f8d632cf88",
    "motivation.svg":
        "c77b520a1a1cb8f79226c5607fbc50e40f7f45dd1924d71e67104203661c27a7",
}

ANALYZE_DIGESTS = {
    "hist.csv":
        "ff0d742fae623b41ad4d25a547b0ba8dbaf797b66d83d548cb68d529cf8605fd",
    "hist.svg":
        "5c189975c5d6de5a398dfd1c860cf8051b4d530969f1fe89883c70e3cda3646d",
    "importances.csv":
        "e258aa4052d9cfc0c892f6b65c893c20ccebce6d35f18baf9f1a101e1ace1e1a",
}


def _digests(directory) -> dict:
    return {path.name: _sha256(path) for path in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def lal_strategy(tmp_path_factory):
    """The ``cold_start_iterative`` case's strategy file."""
    tmp = tmp_path_factory.mktemp("lal")
    config = tmp / "build.json"
    config.write_text(json.dumps({**BASE, **CASES["cold_start_iterative"],
                                  "output": str(tmp / "strategy.json")}))
    assert main(["build-strategy", str(config)]) == EXIT_OK
    return tmp / "strategy.json"


def _run(out, lal_strategy, metric, workers="1"):
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps({**RUN, "metric": metric, "output_dir": str(out),
                                  "strategies": ["random", "uncertainty",
                                                 str(lal_strategy)]}))
    assert main(["run", str(config), "--svg", "--workers", workers]) == EXIT_OK


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("metric", sorted(RUN_DIGESTS))
def test_run_artifacts_match_recorded_digests(metric, workers, lal_strategy, tmp_path):
    _run(tmp_path / "out", lal_strategy, metric, workers)
    assert _digests(tmp_path / "out") == RUN_DIGESTS[metric]


def test_motivate_svg_matches_recorded_digests(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(MOTIVATE + ["--balanced", "--out", str(out / "motivation.csv"),
                            "--svg", str(out / "motivation.svg")]) == EXIT_OK
    assert _digests(out) == MOTIVATE_SVG_DIGESTS


def test_analyze_artifacts_match_recorded_digests(lal_strategy, tmp_path):
    _run(tmp_path / "run", lal_strategy, "accuracy")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["analyze", "--strategy", str(lal_strategy),
                 "--importances-out", str(out / "importances.csv")]) == EXIT_OK
    traces = sorted(str(path) for path in (tmp_path / "run").glob("*_selections.csv"))
    assert main(["analyze", "--traces", *traces, "--histogram-out", str(out / "hist.csv"),
                 "--svg", str(out / "hist.svg")]) == EXIT_OK
    assert _digests(out) == ANALYZE_DIGESTS
