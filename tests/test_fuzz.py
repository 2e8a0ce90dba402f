"""Fuzz the determinism contract: drawn small configs give the same bytes at 1, 2
and 3 workers, each strategy of a run gives the files it gives run alone, a
strategy's regressor is the fit of its exported rows, and ``run`` writes what
``run_repeated`` returns, written through ``lalearn.artifacts``.

Each config is drawn from a fixed seed, so a failure replays; the failure
message prints the drawn config.  Three workers cut uneven blocks of
initializations and repetitions.
"""

import json

import numpy as np
import pytest

from lalearn import artifacts
from lalearn.cli import EXIT_OK, main
from lalearn.data import gen_gaussian_clouds, load_csv, save_csv, split
from lalearn.forest import ForestConfig, forest_to_doc, regressor_config, train_forest
from lalearn.harness import run_repeated
from lalearn.metrics import METRIC_IDS
from lalearn.seeding import derive_seed
from lalearn.strategies import RandomStrategy, UncertaintyStrategy, load_strategy

N_CONFIGS = 6


def _forest(rng) -> dict:
    return {"n_trees": int(rng.integers(3, 9)),
            "max_depth": [None, 2][rng.integers(2)],
            "features_per_split": [None, 1][rng.integers(2)],
            "min_leaf_size": int(rng.integers(1, 6))}


def _dataset(rng, kind: str) -> dict:
    """A generator spec, or ``imbalanced`` for a CSV written by the test."""
    seed = int(rng.integers(2 ** 31))
    if kind == "imbalanced":
        return {"imbalanced": round(float(rng.uniform(0.8, 0.92)), 2),
                "n": int(rng.integers(90, 140)), "seed": seed}
    return {"generator": kind, "n": int(rng.integers(90, 140)), "seed": seed}


def _shuffled(rng, values) -> list:
    """``values`` repeated to ``N_CONFIGS`` entries, in a drawn order."""
    return [values[i % len(values)] for i in rng.permutation(N_CONFIGS)]


def _draws():
    """The drawn configs; each kind of dataset, start and method is drawn at least once."""
    rng = np.random.default_rng(23)
    kinds = _shuffled(rng, ["gaussian_clouds", "checkerboard", "banana", "imbalanced"])
    warm_starts = _shuffled(rng, [True, False])
    methods = _shuffled(rng, ["independent", "iterative"])
    for kind, warm, method in zip(kinds, warm_starts, methods):
        yield {
            "seed": int(rng.integers(2 ** 31)),
            "dataset": _dataset(rng, kind),
            "test_fraction": round(float(rng.uniform(0.3, 0.6)), 2),
            "method": method,
            "size_max": int(rng.integers(2, 6)),
            "initializations": int(rng.integers(1, 6)),
            "candidates": int(rng.integers(1, 5)),
            "classifier": _forest(rng),
            "regressor": _forest(rng),
            "warm_start_size": int(rng.integers(2, 5)) if warm else None,
            "metric": METRIC_IDS[rng.integers(len(METRIC_IDS))],
            "budget": int(rng.integers(2, 7)),
            "repetitions": int(rng.integers(1, 4)),
        }


def _dataset_spec(drawn: dict, tmp_path) -> dict:
    spec = drawn["dataset"]
    if "imbalanced" not in spec:
        return spec
    data = gen_gaussian_clouds(spec["n"], spec["imbalanced"], 2.0, seed=spec["seed"])
    save_csv(data, tmp_path / "imbalanced.csv")
    return {"csv": str(tmp_path / "imbalanced.csv")}


def _configs(drawn: dict, tmp_path) -> tuple[dict, dict]:
    """The build and run configs of one draw.

    A warm draw builds on the run's dataset and starts each run from
    ``warm_start_size`` labels; a cold one builds on cold-start clouds and
    starts each run from 2 labels.
    """
    dataset = _dataset_spec(drawn, tmp_path)
    build = {"config_format": 1, "seed": drawn["seed"], "method": drawn["method"],
             "size_max": drawn["size_max"], "initializations": drawn["initializations"],
             "candidates": drawn["candidates"], "test_loss": drawn["metric"],
             "classifier": drawn["classifier"], "regressor": drawn["regressor"]}
    if drawn["warm_start_size"] is None:
        build["representative"] = {"cold_start": {"n_train": 60, "n_test": 50}}
    else:
        build.update(representative=dataset, test_fraction=drawn["test_fraction"])
    run = {"config_format": 1, "seed": drawn["seed"], "dataset": dataset,
           "test_fraction": drawn["test_fraction"], "metric": drawn["metric"],
           "budget": drawn["budget"], "repetitions": drawn["repetitions"],
           "warm_start_size": drawn["warm_start_size"], "classifier": drawn["classifier"]}
    return build, run


def _files(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())
            if path.is_file()}


def _run(run: dict, strategies: list, out, workers: str, replay: str) -> dict:
    """The files that ``run`` writes for ``strategies`` into ``out``; its config sits beside."""
    path = out.with_suffix(".json")
    path.write_text(json.dumps({**run, "output_dir": str(out), "strategies": strategies}))
    assert main(["run", str(path), "--workers", workers]) == EXIT_OK, replay
    return _files(out)


@pytest.mark.parametrize("index, drawn", enumerate(_draws()),
                         ids=[f"draw{i}" for i in range(N_CONFIGS)])
def test_drawn_config_is_worker_independent_and_its_rows_refit_the_regressor(
        tmp_path, index, drawn):
    replay = f"draw {index} of default_rng(23): {json.dumps(drawn, sort_keys=True)}"
    build, run = _configs(drawn, tmp_path)
    (tmp_path / "build.json").write_text(json.dumps(build))
    outputs = {}
    for workers in ("1", "2", "3"):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        assert main(["build-strategy", str(tmp_path / "build.json"), "--workers", workers,
                     "--output", str(out / "strategy.json"),
                     "--rows-out", str(out / "rows.csv")]) == EXIT_OK, replay
        strategies = ["random", "uncertainty", str(out / "strategy.json")]
        outputs[workers] = {**_files(out), **_run(run, strategies, tmp_path / f"run_w{workers}",
                                                  workers, replay)}
    for workers in ("2", "3"):
        assert sorted(outputs[workers]) == sorted(outputs["1"]), replay
        for name, data in outputs["1"].items():
            assert data == outputs[workers][name], f"{name} differs at {workers}; {replay}"

    lal = str(tmp_path / "w1" / "strategy.json")
    for i, spec in enumerate(["random", "uncertainty", lal]):
        alone = _run(run, [spec], tmp_path / f"alone{i}", "1", replay)
        del alone["summary.csv"]
        assert len(alone) == 3, replay
        for name, data in alone.items():
            assert data == outputs["1"][name], f"{name} differs run alone; {replay}"

    lines = outputs["1"]["rows.csv"].decode().splitlines()
    assert lines[0].startswith("xi_0,xi_1,xi_2,xi_3,xi_4,xi_5,xi_6,delta,"), replay
    table = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    refit = train_forest(table[:, :7], table[:, 7], regressor_config(**drawn["regressor"]),
                         derive_seed(drawn["seed"], "regressor"))
    strategy = json.loads(outputs["1"]["strategy.json"])
    assert json.loads(json.dumps(forest_to_doc(refit))) == strategy["regressor"], replay
    reloaded = load_strategy(lal).regressor
    assert (reloaded.predict_regression_batch(table[:, :7]).tobytes()
            == refit.predict_regression_batch(table[:, :7]).tobytes()), replay


def test_run_writes_what_the_library_returns(tmp_path):
    # the first drawn config on a CSV dataset, run through the CLI and
    # through run_repeated, whose results lalearn.artifacts writes
    index, drawn = next((i, d) for i, d in enumerate(_draws()) if "imbalanced" in d["dataset"])
    replay = f"draw {index} of default_rng(23): {json.dumps(drawn, sort_keys=True)}"
    build, run = _configs(drawn, tmp_path)
    (tmp_path / "build.json").write_text(json.dumps(build))
    lal = tmp_path / "strategy.json"
    assert main(["build-strategy", str(tmp_path / "build.json"),
                 "--output", str(lal)]) == EXIT_OK, replay
    cli = _run(run, ["random", "uncertainty", str(lal)], tmp_path / "cli", "1", replay)

    train, test = split(load_csv(run["dataset"]["csv"]), run["test_fraction"],
                        derive_seed(run["seed"], "benchmark_split"))
    curves, traces = run_repeated(
        train, test, [RandomStrategy(), UncertaintyStrategy(), load_strategy(lal)],
        run["budget"], run["metric"], run["repetitions"], run["seed"],
        ForestConfig(**run["classifier"]), warm_start_size=run["warm_start_size"])
    out = tmp_path / "library"
    out.mkdir()
    for name, curve in curves.items():
        artifacts.curve_to_csv(curve, out / f"{name}_curve.csv")
        artifacts.curve_to_json(curve, out / f"{name}_curve.json")
        artifacts.selection_traces_to_csv(traces[name], out / f"{name}_selections.csv")
    artifacts.summary_to_csv(curves, out / "summary.csv")
    library = _files(out)
    assert sorted(library) == sorted(cli) and len(cli) == 10, replay
    for name, data in library.items():
        assert data == cli[name], f"{name} differs from the library's; {replay}"
