"""Command-line interface: configs, artifacts, exit codes, determinism."""

import json

import numpy as np
import pytest

from lalearn.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from lalearn.data import gen_gaussian_clouds, save_csv
from lalearn.forest import regressor_config, train_forest
from lalearn.strategies import LalStrategy


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _build_config(tmp_path, **overrides):
    doc = {
        "config_format": 1,
        "method": "independent",
        "seed": 3,
        "output": str(tmp_path / "strategy.json"),
        "size_min": 2, "size_max": 4,
        "initializations": 2, "candidates": 2,
        "classifier": {"n_trees": 8},
        "regressor": {"n_trees": 8},
        "representative": {"cold_start": {"n_train": 60, "n_test": 50}},
    }
    doc.update(overrides)
    return _write(tmp_path / "build.json", doc)


def _run_config(tmp_path, out_name="out", **overrides):
    doc = {
        "config_format": 1,
        "seed": 5,
        "dataset": {"generator": "gaussian_clouds", "n": 120},
        "strategies": ["random", "uncertainty"],
        "budget": 3,
        "repetitions": 2,
        "metric": "accuracy",
        "classifier": {"n_trees": 8},
        "output_dir": str(tmp_path / out_name),
    }
    doc.update(overrides)
    return _write(tmp_path / "run.json", doc)


class TestBuildStrategy:
    def test_build_then_run_round_trip(self, tmp_path, capsys):
        config = _build_config(tmp_path)
        assert main(["build-strategy", config]) == EXIT_OK
        assert "built lal_independent" in capsys.readouterr().out
        run = _run_config(tmp_path, strategies=[
            "random", str(tmp_path / "strategy.json")])
        assert main(["run", run]) == EXIT_OK
        assert (tmp_path / "out" / "lal_independent_curve.csv").exists()

    def test_same_config_same_bytes(self, tmp_path):
        a = _build_config(tmp_path, output=str(tmp_path / "a.json"))
        assert main(["build-strategy", a]) == EXIT_OK
        b = _build_config(tmp_path, output=str(tmp_path / "b.json"))
        assert main(["build-strategy", b]) == EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_invalid_size_range_is_config_error(self, tmp_path, capsys):
        config = _build_config(tmp_path, size_min=9, size_max=3)
        assert main(["build-strategy", config]) == EXIT_CONFIG
        assert "error: config" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, tmp_path):
        config = _build_config(tmp_path)
        assert main(["build-strategy", config]) == EXIT_OK
        assert main(["build-strategy", config]) == EXIT_CONFIG
        assert main(["build-strategy", config, "--force"]) == EXIT_OK

    def test_warm_start_build_from_csv(self, tmp_path):
        data = gen_gaussian_clouds(120, 0.5, 2.0, 2, seed=9)
        csv = tmp_path / "data.csv"
        save_csv(data, csv)
        config = _build_config(
            tmp_path, method="iterative", size_max=3,
            representative={"csv": str(csv)}, test_fraction=0.4)
        assert main(["build-strategy", config]) == EXIT_OK
        doc = json.loads((tmp_path / "strategy.json").read_text())
        assert doc["provenance"] == "iterative"
        assert doc["format"] == 1

    def test_rows_export(self, tmp_path):
        config = _build_config(tmp_path)
        rows = tmp_path / "rows.csv"
        assert main(["build-strategy", config, "--rows-out", str(rows)]) == EXIT_OK
        header = rows.read_text().splitlines()[0]
        assert header == "xi_0,xi_1,xi_2,xi_3,xi_4,xi_5,xi_6,delta,tau,q,m"


class TestRun:
    def test_outputs_per_strategy_plus_summary(self, tmp_path):
        run = _run_config(tmp_path)
        assert main(["run", run]) == EXIT_OK
        out = tmp_path / "out"
        for name in ("random", "uncertainty"):
            assert (out / f"{name}_curve.csv").exists()
            assert (out / f"{name}_curve.json").exists()
            assert (out / f"{name}_selections.csv").exists()
        assert (out / "summary.csv").exists()

    def test_curve_csv_shape(self, tmp_path):
        run = _run_config(tmp_path)
        main(["run", run])
        lines = (tmp_path / "out" / "random_curve.csv").read_text().splitlines()
        assert lines[0] == "budget,mean,std,rep_0,rep_1"
        assert len(lines) == 5  # header + budgets 0..3

    def test_budget_validation_happens_before_work(self, tmp_path, capsys):
        run = _run_config(tmp_path, budget=500)
        assert main(["run", run]) == EXIT_CONFIG
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_unknown_metric_rejected(self, tmp_path):
        run = _run_config(tmp_path, metric="f1")
        assert main(["run", run]) == EXIT_CONFIG

    def test_missing_strategy_file_rejected(self, tmp_path):
        run = _run_config(tmp_path, strategies=["random", "missing.json"])
        assert main(["run", run]) == EXIT_CONFIG

    def test_overwrite_needs_force(self, tmp_path):
        run = _run_config(tmp_path)
        assert main(["run", run]) == EXIT_OK
        assert main(["run", run]) == EXIT_CONFIG
        assert main(["run", run, "--force"]) == EXIT_OK

    def test_rerun_is_byte_identical(self, tmp_path):
        run_a = _run_config(tmp_path, out_name="a")
        assert main(["run", run_a]) == EXIT_OK
        run_b = _run_config(tmp_path, out_name="b")
        assert main(["run", run_b]) == EXIT_OK
        for name in ("random_curve.csv", "uncertainty_curve.csv", "summary.csv",
                     "random_selections.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_workers_flag_does_not_change_output(self, tmp_path):
        run_a = _run_config(tmp_path, out_name="w1")
        assert main(["run", run_a, "--workers", "1"]) == EXIT_OK
        run_b = _run_config(tmp_path, out_name="w2")
        assert main(["run", run_b, "--workers", "2"]) == EXIT_OK
        assert ((tmp_path / "w1" / "summary.csv").read_bytes()
                == (tmp_path / "w2" / "summary.csv").read_bytes())

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LALEARN_OUTPUT_DIR", str(tmp_path / "env_out"))
        run = _run_config(tmp_path)
        assert main(["run", run]) == EXIT_OK
        assert (tmp_path / "env_out" / "summary.csv").exists()
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_csv_dataset_and_warm_start(self, tmp_path):
        data = gen_gaussian_clouds(100, 0.5, 2.0, 2, seed=11)
        csv = tmp_path / "pool.csv"
        save_csv(data, csv)
        run = _run_config(tmp_path, dataset={"csv": str(csv)},
                          warm_start_size=10, budget=2)
        assert main(["run", run]) == EXIT_OK

    @pytest.mark.parametrize("field", ["feature", "regressor", "provenance"])
    def test_corrupt_strategy_file_is_config_error(self, tmp_path, capsys, field):
        states = np.random.default_rng(0).random((30, 7))
        regressor = train_forest(states, states[:, 6],
                                 regressor_config(n_trees=2, min_leaf_size=1), seed=1)
        doc = LalStrategy(regressor).to_doc()
        if field == "feature":
            # one past the last feature: the walk would read the next row
            doc["regressor"]["trees"][0]["feature"] = 7
        else:
            del doc[field]
        path = tmp_path / "lal.json"
        path.write_text(json.dumps(doc))
        run = _run_config(tmp_path, strategies=["random", str(path)])
        assert main(["run", run]) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_svg_emission(self, tmp_path):
        run = _run_config(tmp_path)
        assert main(["run", run, "--svg"]) == EXIT_OK
        svg = (tmp_path / "out" / "curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestMotivate:
    def test_emits_expected_columns(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["motivate", "--balanced", "--repetitions", "40",
                     "--bins", "10", "--seed", "2", "--out", str(out),
                     "--pool-size", "30", "--test-size", "100"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "p0_bin,mean_delta"
        assert len(lines) == 11

    def test_deterministic_in_seed(self, tmp_path):
        args = ["motivate", "--unbalanced", "--repetitions", "30", "--seed", "7",
                "--pool-size", "30", "--test-size", "100"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, flag", [
        (["--repetitions", "0"], "--repetitions"),
        (["--pool-size", "1"], "--pool-size"),
        (["--pool-size", "2"], "--pool-size"),
        (["--test-size", "0"], "--test-size"),
        (["--separation", "-1"], "--separation"),
    ])
    def test_bad_flags(self, tmp_path, capsys, flags, flag):
        assert main(["motivate", "--balanced", "--repetitions", "2", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")] + flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and flag in err
        assert not (tmp_path / "x.csv").exists()


class TestAnalyze:
    def test_importance_report(self, tmp_path, capsys):
        config = _build_config(tmp_path)
        assert main(["build-strategy", config]) == EXIT_OK
        report = tmp_path / "imp.csv"
        code = main(["analyze", "--strategy", str(tmp_path / "strategy.json"),
                     "--importances-out", str(report)])
        assert code == EXIT_OK
        lines = report.read_text().splitlines()
        assert lines[0] == "feature,importance"
        assert len(lines) == 8  # header + 7 named features
        assert "predicted_probability_class0" in lines[-1]

    def test_histogram_from_traces(self, tmp_path):
        run = _run_config(tmp_path)
        assert main(["run", run]) == EXIT_OK
        traces = tmp_path / "out" / "uncertainty_selections.csv"
        hist = tmp_path / "hist.csv"
        code = main(["analyze", "--traces", str(traces), "--bins", "7",
                     "--histogram-out", str(hist)])
        assert code == EXIT_OK
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 2 * 3  # repetitions x budget selections

    def test_zero_bins_is_config_error_naming_the_flag(self, tmp_path, capsys):
        traces = tmp_path / "sel.csv"
        traces.write_text("repetition,iteration,index,p0\n0,0,4,0.5\n")
        code = main(["analyze", "--traces", str(traces), "--bins", "0",
                     "--histogram-out", str(tmp_path / "hist.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and "--bins" in err
        assert not (tmp_path / "hist.csv").exists()

    def test_probability_outside_unit_interval_is_config_error(self, tmp_path, capsys):
        traces = tmp_path / "sel.csv"
        traces.write_text("repetition,iteration,index,p0\n0,0,4,1.5\n0,1,9,0.5\n")
        code = main(["analyze", "--traces", str(traces),
                     "--histogram-out", str(tmp_path / "hist.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and f"{traces} line 2" in err
        assert not (tmp_path / "hist.csv").exists()

    def test_missing_inputs_are_config_errors(self, tmp_path):
        assert main(["analyze"]) == EXIT_CONFIG
        assert main(["analyze", "--strategy", "nope.json",
                     "--importances-out", str(tmp_path / "i.csv")]) == EXIT_CONFIG
        assert main(["analyze", "--traces", "nope.csv",
                     "--histogram-out", str(tmp_path / "h.csv")]) == EXIT_CONFIG

    def test_baseline_strategy_has_no_importances(self, tmp_path):
        from lalearn.strategies import RandomStrategy, save_strategy
        path = tmp_path / "random.json"
        save_strategy(RandomStrategy(), path)
        assert main(["analyze", "--strategy", str(path),
                     "--importances-out", str(tmp_path / "i.csv")]) == EXIT_CONFIG


class TestConfigFormat:
    def test_missing_format_tag(self, tmp_path):
        path = _write(tmp_path / "c.json", {"seed": 1})
        assert main(["run", path]) == EXIT_CONFIG

    def test_unparseable_dataset_file_is_config_error(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("f0,label\n1.0,0\n2.0,7\n")
        run = _run_config(tmp_path, dataset={"csv": str(csv)})
        assert main(["run", run]) == EXIT_CONFIG

    def test_runtime_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a failure after the config validated is a runtime error
        def fail(*args, **kwargs):
            raise RuntimeError("benchmark failed")

        monkeypatch.setattr("lalearn.cli.run_repeated", fail)
        assert main(["run", _run_config(tmp_path)]) == EXIT_RUNTIME
        assert "error: runtime: benchmark failed" in capsys.readouterr().err

    def test_single_class_split_is_config_error(self, tmp_path, capsys):
        # one class-1 row: whichever part it lands in, the other part has
        # a single class
        csv = tmp_path / "skewed.csv"
        rows = ["f0,f1,label"] + [f"{i}.0,0.0,0" for i in range(40)] + ["99.0,1.0,1"]
        csv.write_text("\n".join(rows) + "\n")
        run = _run_config(tmp_path, dataset={"csv": str(csv)}, budget=2,
                          test_fraction=0.5)
        assert main(["run", run]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config")
        assert "test_fraction" in err and "skewed.csv" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, overrides, field", [
        ("run", {"dataset": {"generator": "gaussian_clouds", "n": 120, "dim": "x"}},
         "dim"),
        ("run", {"test_fraction": "x"}, "test_fraction"),
        ("run", {"repetitions": "2"}, "repetitions"),
        ("build-strategy", {"representative": {"generator": "banana", "n": 120},
                            "test_fraction": "x"}, "test_fraction"),
        ("build-strategy", {"size_max": 60}, "size_max"),
        ("run", {"strategies": [1]}, "strategies"),
        ("run", {"output_dir": 5}, "output_dir"),
        ("run", {"test_fraction": 2.0}, "test_fraction"),
        ("run", {"classifier": {"n_trees": "x"}}, "n_trees"),
        ("build-strategy", {"regressor": {"max_depth": 2.5}}, "max_depth"),
        ("run", {"dataset": {"generator": "checkerboard", "n": 40}, "test_fraction": 0.5,
                 "warm_start_size": 20, "budget": 0}, "warm_start_size"),
        ("run", {"dataset": {"generator": "checkerboard", "n": 40}, "test_fraction": 0.5,
                 "warm_start_size": 30}, "warm_start_size"),
        ("run", {"strategies": []}, "strategies"),
        ("build-strategy", {"representative": {"cold_start": {"n_trian": 50}}}, "n_trian"),
    ])
    def test_invalid_field_is_config_error_naming_it(self, tmp_path, capsys, command,
                                                     overrides, field):
        write = _run_config if command == "run" else _build_config
        assert main([command, write(tmp_path, **overrides)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and field in err

    @pytest.mark.parametrize("command, workers", [
        ("build-strategy", "0"), ("run", "-3"), ("motivate", "-3")])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, command, workers):
        if command == "motivate":
            args = ["motivate", "--balanced", "--repetitions", "2", "--seed", "1",
                    "--out", str(tmp_path / "x.csv")]
        else:
            write = _run_config if command == "run" else _build_config
            args = [command, write(tmp_path)]
        assert main(args + ["--workers", workers]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and "--workers" in err
        assert {path.name for path in tmp_path.iterdir()} <= {"build.json", "run.json"}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{oops")
        assert main(["run", str(path)]) == EXIT_CONFIG

    def test_missing_file(self):
        assert main(["run", "no_such_config.json"]) == EXIT_CONFIG
