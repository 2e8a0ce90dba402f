"""Command-line interface: configs, artifacts, exit codes, determinism."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from lalearn import atomic
from lalearn.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from lalearn.data import gen_gaussian_clouds, save_csv
from lalearn.forest import regressor_config, train_forest
from lalearn.strategies import LalStrategy, save_strategy
from lalearn.training import MONTE_CARLO_SCHEMA


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

    def test_training_metadata_records_the_grid(self, tmp_path):
        assert main(["build-strategy", _build_config(tmp_path)]) == EXIT_OK
        doc = json.loads((tmp_path / "strategy.json").read_text())
        assert set(doc["training_metadata"]) == {*MONTE_CARLO_SCHEMA, "rows", "representative"}
        assert doc["training_metadata"]["seed"] == 3

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

    def test_missing_strategy_file_rejected(self, tmp_path, capsys):
        run = _run_config(tmp_path, strategies=["random", "missing.json"])
        assert main(["run", run]) == EXIT_CONFIG
        assert ("strategy 'missing.json' is neither a builtin ('random', 'uncertainty') "
                "nor an existing file") in capsys.readouterr().err

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

    def test_csv_dataset_and_warm_start(self, tmp_path):
        data = gen_gaussian_clouds(100, 0.5, 2.0, 2, seed=11)
        csv = tmp_path / "pool.csv"
        save_csv(data, csv)
        run = _run_config(tmp_path, dataset={"csv": str(csv)},
                          warm_start_size=10, budget=2)
        assert main(["run", run]) == EXIT_OK

    def test_byte_order_marks_are_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" and some editors start a file with a BOM
        data = gen_gaussian_clouds(100, 0.5, 2.0, 2, seed=11)
        text = "label,x,y\n" + "".join(f"{label},{x!r},{y!r}\n" for (x, y), label
                                       in zip(data.features.tolist(), data.labels.tolist()))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        run = _run_config(tmp_path, out_name="plain", dataset={"csv": str(plain)})
        assert main(["run", run]) == EXIT_OK
        run = Path(_run_config(tmp_path, out_name="marked", dataset={"csv": str(marked)}))
        run.write_text(run.read_text(), encoding="utf-8-sig")
        assert main(["run", str(run)]) == EXIT_OK
        # the curve JSON records the dataset's file name, so it differs
        for name in ("random_curve.csv", "uncertainty_curve.csv", "random_selections.csv",
                     "uncertainty_selections.csv", "summary.csv"):
            assert ((tmp_path / "plain" / name).read_bytes()
                    == (tmp_path / "marked" / name).read_bytes())

    @pytest.mark.parametrize("field", ["feature", "regressor", "provenance",
                                       "feature_schema", "training_metadata"])
    def test_corrupt_strategy_file_is_config_error(self, tmp_path, capsys, field):
        states = np.random.default_rng(0).random((30, 7))
        regressor = train_forest(states, states[:, 6],
                                 regressor_config(n_trees=2, min_leaf_size=1), seed=1)
        doc = LalStrategy(regressor).to_doc()
        if field == "feature":
            # one past the last feature: the walk would read the next row
            doc["regressor"]["trees"][0]["feature"] = 7
        elif field == "feature_schema":
            doc[field] = 5
        elif field == "training_metadata":
            doc[field] = [1]
        else:
            del doc[field]
        path = tmp_path / "lal.json"
        path.write_text(json.dumps(doc))
        run = _run_config(tmp_path, strategies=["random", str(path)])
        assert main(["run", run]) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_builtin_strategy_file_is_config_error_naming_kind(self, tmp_path, capsys):
        # a builtin is named in 'strategies', never filed
        path = _write(tmp_path / "random.json", {"format": 1, "kind": "random"})
        assert main(["run", _run_config(tmp_path, strategies=["uncertainty", path])]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: run: ") and "field 'kind'" in err
        assert not (tmp_path / "out").exists()

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
        (["--bins", "1"], "--bins"),
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

    def test_every_strategy_field_corruption_is_config_error(self, tmp_path, capsys):
        # every field of a small strategy, down to the nodes of both trees:
        # each corruption exits 2, except the few that leave a valid
        # document (a finite number where a float belongs, null where the
        # config allows it, no or empty training metadata)
        rng = np.random.default_rng(9)
        states = np.round(rng.random((16, 7)), 1)
        regressor = train_forest(states, rng.normal(size=16),
                                 regressor_config(n_trees=2, min_leaf_size=3), seed=4)
        base = LalStrategy(regressor, provenance="iterative").to_doc()
        deleted = object()
        corruptions = (None, True, 0.5, "x", [], {}, 10 ** 30, -(10 ** 30), deleted)

        def accepted(path, value):
            if path[-1] in ("threshold", "value") or path[-2:-1] == ("importances",):
                return value in (0.5, 10 ** 30, -(10 ** 30))
            if path[-1] in ("max_depth", "features_per_split"):
                return value is None and path[-2] == "config"
            return path == ("training_metadata",) and (value is deleted or value == {})

        paths = []

        def visit(node, path):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, child in items:
                paths.append(path + (key,))
                if isinstance(child, (dict, list)):
                    visit(child, path + (key,))

        visit(base, ())
        assert sum(path[-1] == "count" for path in paths) >= 5   # both trees split
        failures = []
        for i, path in enumerate(paths):
            for value in corruptions:
                doc = json.loads(json.dumps(base))
                parent = doc
                for step in path[:-1]:
                    parent = parent[step]
                if value is deleted:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
                strategy = _write(tmp_path / f"s{i}.json", doc)
                code = main(["analyze", "--strategy", strategy, "--force",
                             "--importances-out", str(tmp_path / "imp.csv")])
                err = capsys.readouterr().err
                expected = EXIT_OK if accepted(path, value) else EXIT_CONFIG
                if code != expected or (code and not err.startswith("error: config")):
                    failures.append((path, "deleted" if value is deleted else value,
                                     code, err.strip()))
        assert len(paths) > 40
        assert failures == []

    def test_probability_outside_unit_interval_is_config_error(self, tmp_path, capsys):
        traces = tmp_path / "sel.csv"
        traces.write_text("repetition,iteration,index,p0\n0,0,4,1.5\n0,1,9,0.5\n")
        code = main(["analyze", "--traces", str(traces),
                     "--histogram-out", str(tmp_path / "hist.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and f"{traces} line 2" in err
        assert not (tmp_path / "hist.csv").exists()

    def test_repeated_iterations_are_config_errors(self, tmp_path, capsys):
        traces = tmp_path / "sel.csv"
        traces.write_text("repetition,iteration,index,p0\n0,0,3,0.5\n0,0,4,0.5\n")
        code = main(["analyze", "--traces", str(traces),
                     "--histogram-out", str(tmp_path / "hist.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config") and f"{traces}: repetition 0" in err
        assert not (tmp_path / "hist.csv").exists()

    def test_missing_inputs_are_config_errors(self, tmp_path):
        assert main(["analyze"]) == EXIT_CONFIG
        assert main(["analyze", "--strategy", "nope.json",
                     "--importances-out", str(tmp_path / "i.csv")]) == EXIT_CONFIG
        assert main(["analyze", "--traces", "nope.csv",
                     "--histogram-out", str(tmp_path / "h.csv")]) == EXIT_CONFIG

    def test_baseline_strategy_has_no_importances(self, tmp_path, capsys):
        path = _write(tmp_path / "random.json", {"format": 1, "kind": "random"})
        assert main(["analyze", "--strategy", path,
                     "--importances-out", str(tmp_path / "i.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: config: analyze: ") and "field 'kind'" in err
        assert not (tmp_path / "i.csv").exists()


def _label_only_csv(tmp_path):
    csv = tmp_path / "labels.csv"
    csv.write_text("label\n" + "0\n1\n" * 20)
    return str(csv)


def _lal_strategy_file(tmp_path):
    states = np.random.default_rng(0).random((30, 7))
    regressor = train_forest(states, states[:, 6],
                             regressor_config(n_trees=2, min_leaf_size=1), seed=1)
    path = tmp_path / "lal.json"
    save_strategy(LalStrategy(regressor), path)
    return str(path)


def _strategy_without_provenance(tmp_path):
    """``_lal_strategy_file``'s strategy without ``provenance``, as noprov.json."""
    doc = json.loads(Path(_lal_strategy_file(tmp_path)).read_text())
    del doc["provenance"]
    return _write(tmp_path / "noprov.json", doc)


def _file_in_the_way(tmp_path):
    (tmp_path / "file").write_text("")
    return str(tmp_path / "file" / "out")


def _trace_file(tmp_path):
    path = tmp_path / "sel.csv"
    path.write_text("repetition,iteration,index,p0\n0,0,4,0.5\n")
    return str(path)


def _dir(tmp_path, name):
    (tmp_path / name).mkdir()
    return str(tmp_path / name)


def _bytes(tmp_path, name, data):
    (tmp_path / name).write_bytes(data)
    return str(tmp_path / name)


def _after(made, argv):
    """``argv``, once ``made`` (evaluated first, as an argument) is in place."""
    return argv


def _analyze_both(p):
    return ["analyze", "--strategy", _lal_strategy_file(p), "--traces", _trace_file(p)]


def _deep_json(tmp_path, name):
    """A JSON list nested 200,000 levels deep, beyond the decoder's recursion limit."""
    return _bytes(tmp_path, name, b"[" * 200_000 + b"]" * 200_000)


def _four_positive_csv(tmp_path):
    """400 rows, 4 of class 1: most uniform warm starts of 2 miss class 1."""
    rows = ["f0,f1,label"] + [f"{i}.0,{i % 7}.0,{int(i % 100 == 0)}" for i in range(400)]
    (tmp_path / "four.csv").write_text("\n".join(rows) + "\n")
    return str(tmp_path / "four.csv")


def _two_positive_csv(tmp_path):
    """42 rows, 2 of class 1: many permutations put both in one half."""
    rows = (["f0,f1,label"] + [f"{i}.0,0.0,0" for i in range(40)]
            + ["98.0,1.0,1", "99.0,1.0,1"])
    (tmp_path / "skewed.csv").write_text("\n".join(rows) + "\n")
    return str(tmp_path / "skewed.csv")


_MOTIVATE = ["motivate", "--balanced", "--repetitions", "2", "--seed", "1",
             "--pool-size", "30", "--test-size", "100"]


# each case: tmp_path -> argv, and the path or field the error names
@pytest.mark.parametrize("argv, named", [
    (lambda p: ["run", _run_config(p, dataset={"csv": _label_only_csv(p)})], "labels.csv"),
    (lambda p: ["build-strategy",
                _build_config(p, representative={"csv": _label_only_csv(p)})],
     "labels.csv"),
    (lambda p: ["build-strategy", _build_config(p, output=str(p / "nodir" / "s.json"))],
     "nodir/s.json"),
    (lambda p: ["build-strategy", _build_config(p), "--rows-out", str(p / "nodir" / "r.csv")],
     "nodir/r.csv"),
    (lambda p: _MOTIVATE + ["--out", str(p / "nodir" / "m.csv")], "nodir/m.csv"),
    (lambda p: _MOTIVATE + ["--out", str(p / "m.csv"), "--svg", str(p / "nodir" / "m.svg")],
     "nodir/m.svg"),
    (lambda p: ["analyze", "--strategy", _lal_strategy_file(p),
                "--importances-out", str(p / "nodir" / "imp.csv")],
     "nodir/imp.csv"),
    (lambda p: ["run", _run_config(p, output_dir=_file_in_the_way(p))], "output_dir"),
    # two outputs naming one file, given relative to the working directory
    (lambda p: _MOTIVATE + ["--out", "same.out", "--svg", "same.out"], "same.out"),
    (lambda p: _MOTIVATE + ["--out", "same.out", "--svg", "./same.out"], "same.out"),
    (lambda p: ["build-strategy", _build_config(p, output="s.json"), "--rows-out", "s.json"],
     "s.json"),
    (lambda p: ["build-strategy", _build_config(p, output="s.json"), "--rows-out", "./s.json"],
     "s.json"),
    (lambda p: _analyze_both(p) + ["--importances-out", "same.csv",
                                   "--histogram-out", "same.csv"], "same.csv"),
    (lambda p: _analyze_both(p) + ["--importances-out", "same.csv",
                                   "--histogram-out", "h.csv", "--svg", "./same.csv"],
     "same.csv"),
    # a directory or an undecodable file where a file is read or written
    (lambda p: ["run", _dir(p, "cfgdir")], "cfgdir"),
    (lambda p: ["run", _bytes(p, "utf16.json", b"\xff\xfe{}")], "utf16.json"),
    (lambda p: ["run", _run_config(p, strategies=["random", _dir(p, "sdir")])], "sdir"),
    (lambda p: ["run", _run_config(p, dataset={"csv": _dir(p, "ddir")})], "ddir"),
    (lambda p: ["build-strategy", _build_config(p, output=_dir(p, "odir")), "--force"],
     "odir"),
    (lambda p: _MOTIVATE + ["--out", _dir(p, "mdir"), "--force"], "mdir"),
    (lambda p: ["analyze", "--strategy", _dir(p, "adir"),
                "--importances-out", str(p / "imp.csv")], "adir"),
    (lambda p: ["analyze", "--traces", _dir(p, "tdir"),
                "--histogram-out", str(p / "h.csv")], "tdir"),
    (lambda p: ["run", _run_config(p, dataset={"csv": _bytes(p, "latin1.csv",
                                                           b"f0,label\n\xe9,0\n")})],
     "latin1.csv"),
    (lambda p: ["analyze", "--strategy", _bytes(p, "latin1.json", b'{"kind": "\xe9"}'),
                "--importances-out", str(p / "imp.csv")], "latin1.json"),
    (lambda p: ["analyze", "--traces", _bytes(p, "latin1_sel.csv",
                                              b"repetition,iteration,index,p0\n\xe9\n"),
                "--histogram-out", str(p / "h.csv")], "latin1_sel.csv"),
    # the temp file atomic_open writes first is an output too
    (lambda p: _after(_dir(p, "m.csv.tmp"), _MOTIVATE + ["--out", "m.csv", "--force"]),
     "m.csv.tmp"),
    (lambda p: _after(_bytes(p, "m.csv.tmp", b""), _MOTIVATE + ["--out", "m.csv"]),
     "already exists (pass --force to overwrite): m.csv.tmp"),
    (lambda p: _MOTIVATE + ["--out", "m.csv", "--svg", "m.csv.tmp"], "m.csv.tmp"),
    (lambda p: _MOTIVATE + ["--out", "m.svg.tmp", "--svg", "m.svg"], "m.svg.tmp"),
    # inputs that are well-formed files but not what the command needs
    (lambda p: ["run", _write(p / "list.json", [1])], "list.json"),
    (lambda p: ["analyze", "--strategy", _lal_strategy_file(p)], "--importances-out"),
    (lambda p: ["analyze", "--traces", _trace_file(p)], "--histogram-out"),
    (lambda p: ["analyze", "--traces", _bytes(p, "header.csv", b"rep,it\n0,0\n"),
                "--histogram-out", str(p / "h.csv")], "header.csv"),
    (lambda p: ["run", _run_config(p, dataset={"csv": _bytes(
        p, "nan.csv", b"f0,f1,label\n" + b"1.0,2.0,0\n0.5,nan,1\n" * 20)})],
     "nan.csv line 3, column 'f1': cell 'nan' is not a finite number"),
    (lambda p: ["build-strategy", _build_config(p, representative={"csv": _bytes(
        p, "inf.csv", b"f0,label\n" + b"1.0,0\n-inf,1\n" * 20)})],
     "inf.csv line 3, column 'f0': cell '-inf' is not a finite number"),
    (lambda p: ["run", _run_config(p, dataset={"csv": _bytes(
        p, "dup.csv", b"f0,label,label\n" + b"1.0,0,0\n2.0,1,1\n" * 20)})],
     "dup.csv: column 'label' appears twice in the header"),
    (lambda p: ["build-strategy", _build_config(p, representative={"csv": _bytes(
        p, "dup.csv", b"f0,f0,label\n" + b"1.0,1.0,0\n2.0,2.0,1\n" * 20)})],
     "dup.csv: column 'f0' appears twice in the header"),
    # non-finite numbers in float fields
    (lambda p: ["run", _run_config(p, dataset={"generator": "banana", "n": 200,
                                               "noise": float("nan")})],
     "field 'noise' must be a finite number, got nan"),
    (lambda p: ["run", _run_config(p, test_fraction=float("inf"))],
     "field 'test_fraction' must be a finite number, got inf"),
    # JSON nested past the decoder's recursion limit
    (lambda p: ["run", _deep_json(p, "deep.json")],
     "deep.json: not valid JSON: maximum recursion depth"),
    (lambda p: ["run", _run_config(p, strategies=["random", _deep_json(p, "deep_s.json")])],
     "deep_s.json: not valid JSON: maximum recursion depth"),
    (lambda p: ["analyze", "--strategy", _deep_json(p, "deep_a.json"),
                "--importances-out", str(p / "imp.csv")],
     "deep_a.json: not valid JSON: maximum recursion depth"),
    # no split of a single class-1 row holds both classes in both parts
    (lambda p: ["build-strategy", _build_config(p, representative={"csv": _bytes(
        p, "one.csv", b"f0,label\n" + b"1.0,0\n" * 40 + b"2.0,1\n")}, test_fraction=0.5)],
     "one.csv: no split holds both classes in both parts: 40 rows of class 0 and 1 of class 1"),
    (lambda p: ["run", _run_config(p, config_format=2)], "config_format must be 1, got 2"),
    # a strategy file's error names that file, not just the document
    (lambda p: ["run", _run_config(p, strategies=[_lal_strategy_file(p),
                                                  _strategy_without_provenance(p)])],
     "noprov.json: strategy: missing required field 'provenance'"),
], ids=["run_label_only_csv", "build_label_only_csv", "build_output_in_missing_dir",
        "rows_out_in_missing_dir", "motivate_out_in_missing_dir",
        "motivate_svg_in_missing_dir", "importances_out_in_missing_dir",
        "output_dir_under_a_file", "motivate_out_is_svg", "motivate_out_is_dot_svg",
        "build_output_is_rows_out", "build_output_is_dot_rows_out",
        "analyze_importances_is_histogram", "analyze_importances_is_dot_svg",
        "config_is_a_directory", "config_is_not_utf8", "strategy_is_a_directory",
        "dataset_csv_is_a_directory", "build_output_is_a_directory_forced",
        "motivate_out_is_a_directory_forced", "analyze_strategy_is_a_directory",
        "analyze_traces_is_a_directory", "dataset_csv_is_not_utf8",
        "analyze_strategy_is_not_utf8", "analyze_traces_is_not_utf8",
        "motivate_out_temp_is_a_directory_forced", "motivate_out_temp_exists",
        "motivate_svg_is_out_temp", "motivate_out_is_svg_temp", "config_is_a_json_list",
        "analyze_strategy_without_importances_out", "analyze_traces_without_histogram_out",
        "trace_file_with_wrong_header", "run_csv_with_nan_feature",
        "build_csv_with_inf_feature", "run_csv_with_label_column_twice",
        "build_csv_with_feature_column_twice", "nan_generator_noise",
        "infinite_test_fraction", "deeply_nested_config", "deeply_nested_run_strategy",
        "deeply_nested_analyze_strategy", "build_csv_with_one_class_1_row",
        "config_format_2", "second_strategy_file_without_provenance"])
def test_bad_input_or_output_path_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                          argv, named):
    monkeypatch.chdir(tmp_path)
    args = argv(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {args[0]}: ") and err.count(f"{args[0]}:") == 1
    assert named in err
    assert sorted(tmp_path.rglob("*")) == before


class TestImbalancedData:
    """Splits and starts hold both classes whenever the data have two rows of each."""

    @staticmethod
    def _run_at_1_and_2_workers(tmp_path, **overrides):
        for workers in ("1", "2"):
            run = _run_config(tmp_path, out_name=f"w{workers}", **overrides)
            assert main(["run", run, "--workers", workers]) == EXIT_OK
        written = sorted(path.name for path in (tmp_path / "w1").iterdir())
        assert written == sorted(path.name for path in (tmp_path / "w2").iterdir())
        for name in written:
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()

    def test_two_positive_rows_run_at_every_repetition(self, tmp_path):
        # the benchmark split at seed 1 keeps one class-1 row in each part;
        # repetition 0's permutation puts both in one part
        self._run_at_1_and_2_workers(tmp_path, dataset={"csv": _two_positive_csv(tmp_path)},
                                     budget=2, test_fraction=0.5, repetitions=5, seed=1)

    def test_four_positive_rows_warm_start_of_two_runs(self, tmp_path):
        self._run_at_1_and_2_workers(tmp_path, dataset={"csv": _four_positive_csv(tmp_path)},
                                     warm_start_size=2, repetitions=4, test_fraction=0.5,
                                     seed=1)

    def test_four_positive_rows_build_at_every_seed(self, tmp_path):
        csv = _four_positive_csv(tmp_path)
        for seed in range(1, 6):
            for workers in ("1", "2"):
                config = _build_config(tmp_path, seed=seed, representative={"csv": csv},
                                       test_fraction=0.5,
                                       output=str(tmp_path / f"s{seed}_w{workers}.json"))
                assert main(["build-strategy", config, "--workers", workers]) == EXIT_OK, seed
            assert ((tmp_path / f"s{seed}_w1.json").read_bytes()
                    == (tmp_path / f"s{seed}_w2.json").read_bytes())


class TestAtomicArtifacts:
    def test_interrupted_forced_rerun_keeps_every_old_artifact(self, tmp_path,
                                                               monkeypatch):
        run = _run_config(tmp_path)
        assert main(["run", run, "--svg"]) == EXIT_OK
        out = tmp_path / "out"
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        calls = []
        real = atomic._cell

        def fail_in_the_second_row(value):
            # the first curve CSV renders 5 cells a row: budget, mean, std, 2 repetitions
            calls.append(value)
            if len(calls) == 8:
                raise RuntimeError("disk full")
            return real(value)

        monkeypatch.setattr(atomic, "_cell", fail_in_the_second_row)
        assert main(["run", run, "--svg", "--force"]) == EXIT_RUNTIME
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_every_command_writes_each_artifact_through_a_temp_file(self, tmp_path,
                                                                    monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        replaced = []
        real = os.replace

        def replace(src, dst):
            assert Path(src) == Path(f"{dst}.tmp")
            replaced.append(Path(dst))
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        strategy = out / "strategy.json"
        assert main(["build-strategy", _build_config(tmp_path, output=str(strategy)),
                     "--rows-out", str(out / "rows.csv")]) == EXIT_OK
        assert main(["run", _run_config(tmp_path, strategies=["random", str(strategy)],
                                        output_dir=str(out / "run")), "--svg"]) == EXIT_OK
        assert main(_MOTIVATE + ["--out", str(out / "m.csv"),
                                 "--svg", str(out / "m.svg")]) == EXIT_OK
        assert main(["analyze", "--strategy", str(strategy),
                     "--importances-out", str(out / "imp.csv"),
                     "--traces", str(out / "run" / "random_selections.csv"),
                     "--histogram-out", str(out / "h.csv"),
                     "--svg", str(out / "h.svg")]) == EXIT_OK
        save_csv(gen_gaussian_clouds(10, 0.5, 2.0, 2, seed=1), out / "data.csv")
        written = sorted(path for path in out.rglob("*") if path.is_file())
        assert len(written) == 16  # 12 writers; 2 strategies, 2 line plots
        assert sorted(replaced) == written


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
        assert "40 rows of class 0 and 1 of class 1" in err
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
        ("run", {"dataset": {"generator": "gaussian_clouds", "nn": 60}}, "nn"),
        ("build-strategy", {"representative": {"csv": "pool.csv", "label": "y"}}, "label"),
        ("build-strategy", {"representative": {"cold_start": {}, "csv": "pool.csv"}}, "csv"),
        ("build-strategy", {"test_fraction": 0.4}, "test_fraction"),
        ("run", {"output_dir": ""}, "output_dir"),
        ("run --output-dir=", {}, "--output-dir"),
        ("build-strategy", {"method": "magic"}, "method"),
        ("run", {"strategies": ["random", "uncertainty", "random"]}, "strategies"),
        ("run", {"dataset": {"generator": "checkerboard", "k": 3}}, "grid side k"),
        ("build-strategy", {"representative": {"cold_start": {"n_train": 3}}}, "n_train"),
        ("run", {"metric": "f1"}, "metric"),
        ("build-strategy", {"test_loss": "f1"}, "test_loss"),
        ("build-strategy", {"size_min": 1}, "size_min"),
    ])
    def test_invalid_field_is_config_error_naming_it(self, tmp_path, capsys, command,
                                                     overrides, field):
        # a command may carry flags, e.g. "run --output-dir="
        command, *flags = command.split()
        write = _run_config if command == "run" else _build_config
        assert main([command, write(tmp_path, **overrides), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {command}: ") and err.count(f"{command}:") == 1
        assert field in err

    @pytest.mark.parametrize("command", ["run", "build-strategy"])
    def test_every_field_rejects_wrong_types_and_misspellings(self, tmp_path, capsys,
                                                              command):
        # every key of the documents above, nested ones included: each
        # wrong-typed value, and separately a misspelled copy of the key,
        # exits 2 naming the key before any output is written
        write = _run_config if command == "run" else _build_config
        base = json.loads(Path(write(tmp_path)).read_text())
        outputs = [tmp_path / "out", tmp_path / "strategy.json"]
        nullable = {"classifier", "regressor", "output", "output_dir", "cold_start"}
        rng = np.random.default_rng(8)
        cases = []

        def visit(doc, path):
            for key, value in doc.items():
                for wrong in (True, "x", 1.5, [], {}, None):
                    if type(wrong) is not type(value) and not (
                            wrong is None and key in nullable):
                        cases.append((path, key, wrong))
                at = int(rng.integers(len(key)))
                cases.append((path, key[:at + 1] + key[at:], value))
                if isinstance(value, dict):
                    visit(value, path + (key,))

        visit(base, ())
        failures = []
        for i, (path, key, value) in enumerate(cases):
            doc = json.loads(json.dumps(base))
            parent = doc
            for step in path:
                parent = parent[step]
            parent[key] = value
            case_dir = tmp_path / f"case{i}"
            case_dir.mkdir()
            code = main([command, write(case_dir, **doc)])
            err = capsys.readouterr().err
            written = [str(p) for p in outputs if p.exists()]
            if (code != EXIT_CONFIG or not err.startswith("error: config")
                    or key not in err or "Traceback" in err or written):
                failures.append((path, key, value, code, err.strip(), written))
        assert len(cases) > 50
        assert failures == []

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

    @pytest.mark.parametrize("command, flag", [
        ("run", "--seed"), ("run", "--budget"), ("run", "--repetitions"),
        ("build-strategy", "--seed")])
    def test_config_fields_have_no_override_flags(self, tmp_path, capsys, command, flag):
        write = _run_config if command == "run" else _build_config
        with pytest.raises(SystemExit) as exc:
            main([command, write(tmp_path), flag, "1"])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert {path.name for path in tmp_path.iterdir()} <= {"build.json", "run.json"}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{oops")
        assert main(["run", str(path)]) == EXIT_CONFIG

    def test_missing_file(self):
        assert main(["run", "no_such_config.json"]) == EXIT_CONFIG
