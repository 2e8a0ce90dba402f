"""Command-line front end.

Subcommands: ``build-strategy``, ``run``, ``motivate``, ``analyze``.
Experiments are described by JSON config files (``config_format: 1``);
selected flags override config fields.  Every command is a pure function
of (config, input files, seed): reruns produce byte-identical outputs.

Each command reads and checks all of its inputs and output paths in one
input phase, ``with _reading(command)``, before it does any work or writes
any file.  Input is rejected one way: a check raises a plain ``ValueError``
naming the problem, a reader (config, dataset CSV, strategy or trace file,
generator, ``split``) a ``ValueError`` or ``OSError`` naming its file, and
``_reading`` alone turns it into a ``ConfigError``, exit 2, printed as
``error: config: <command>: <problem>``.  Anything that fails after the
phase is a runtime failure, exit 3.

Exit codes: 0 success, 2 config validation failure, 3 runtime failure.
The only environment dependence is ``LALEARN_OUTPUT_DIR``, which overrides
the output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import artifacts, svg
from .atomic import read_json, temp_path
from .data import Dataset, gen_banana, gen_checkerboard, gen_gaussian_clouds, load_csv, split
from .forest import CONFIG_SCHEMA, ForestConfig, regressor_config
from .harness import motivation_experiment, probability_histogram, \
    regressor_importance_report, run_repeated
from .metrics import METRIC_IDS
from .schema import REQUIRED, read_fields
from .seeding import derive_seed
from .strategies import BUILD_METHODS, BUILTIN_KINDS, LalStrategy, Strategy, \
    load_strategy, save_strategy
from .training import MONTE_CARLO_SCHEMA, MonteCarloConfig, build_lal, cold_start_data

CONFIG_FORMAT = 1
OUTPUT_DIR_ENV = "LALEARN_OUTPUT_DIR"
EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME = 0, 2, 3


class ConfigError(Exception):
    """Invalid configuration or inputs; maps to exit code 2."""


@contextmanager
def _reading(command: str):
    """A command's input phase: a ``ValueError`` or ``OSError`` in it is a ``ConfigError``.

    Its message is the exception's, with ``command`` in front.
    """
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{command}: {exc}") from None


def _load_config(path, **flags) -> dict:
    """The config object at ``path``, with the flags that are set overriding its fields."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    if doc.get("config_format") != CONFIG_FORMAT:
        raise ValueError(f"{path}: config_format must be {CONFIG_FORMAT}, "
                         f"got {doc.get('config_format')!r}")
    return {**doc, **{key: value for key, value in flags.items() if value is not None}}


# key -> (kind, default[, lo[, hi] | names]), as schema.read_fields takes them
_RUN_CONFIG = {
    "config_format": (int, REQUIRED), "seed": (int, REQUIRED), "budget": (int, REQUIRED, 0),
    "repetitions": (int, 50, 1), "metric": (str, "accuracy", METRIC_IDS),
    "test_fraction": (float, 0.5), "warm_start_size": (int, None, 2),
    "strategies": (list, REQUIRED), "dataset": (dict, REQUIRED),
    "classifier": (dict, None), "output_dir": (str, None),
}
# the grid's fields and bounds with MonteCarloConfig's defaults; the seed is required
_MONTE_CARLO = {key: (kind, getattr(MonteCarloConfig, key), *bounds)
                for key, (kind, _, *bounds) in MONTE_CARLO_SCHEMA.items() if key != "seed"}
_BUILD_CONFIG = {
    "config_format": (int, REQUIRED), "seed": (int, REQUIRED),
    "method": (str, REQUIRED, BUILD_METHODS),
    "output": (str, REQUIRED), **_MONTE_CARLO, "classifier": (dict, None),
    "regressor": (dict, None), "representative": (dict, {"cold_start": None}),
    "test_fraction": (float, 0.5),
}
_COLD_START_REPRESENTATIVE = {"cold_start": (dict, None)}
_COLD_START = {"n_train": (int, 1000), "n_test": (int, 1000), "separation": (float, 2.0),
               "class0_fraction": (float, 0.5)}
_CSV_SPEC = {"csv": (str, REQUIRED), "label_column": (str, "label")}
# each generator's spec also takes "generator" and "seed"; the generator
# function gen_<name> is looked up at call time
_GENERATOR_SPECS = {
    "gaussian_clouds": {"n": (int, 2000), "class0_fraction": (float, 0.5),
                        "separation": (float, 2.0), "dim": (int, 2)},
    "checkerboard": {"k": (int, 2), "n": (int, 2000), "label_noise": (float, 0.0)},
    "banana": {"n": (int, 2000), "noise": (float, 0.2)},
}


def _forest_config(doc: dict | None, base: ForestConfig, what: str) -> ForestConfig:
    """``base`` with the fields of ``doc`` set; a forest file's bounds, ``base``'s defaults."""
    schema = {key: (kind, getattr(base, key), *bounds)
              for key, (kind, _, *bounds) in CONFIG_SCHEMA.items() if key != "mode"}
    return replace(base, **read_fields(doc or {}, schema, what, "forest config"))


def _dataset_from_spec(spec: dict, seed: int, what: str) -> Dataset:
    if "csv" in spec:
        spec = read_fields(spec, _CSV_SPEC, what, "dataset")
        return load_csv(spec["csv"], spec["label_column"])
    generator = spec.get("generator")
    if not isinstance(generator, str) or generator not in _GENERATOR_SPECS:
        raise ValueError(f"dataset spec with keys {sorted(spec)} needs 'csv' or a known "
                         f"'generator' ({' | '.join(_GENERATOR_SPECS)})")
    schema = {"generator": (str, REQUIRED), "seed": (int, derive_seed(seed, "dataset")),
              **_GENERATOR_SPECS[generator]}
    kwargs = read_fields(spec, schema, what, "dataset")
    del kwargs["generator"]
    return globals()[f"gen_{generator}"](**kwargs)


def _check_overwrite(paths: list, force: bool) -> None:
    """Outputs name distinct files in existing directories, and replace none unless forced.

    ``atomic_open`` writes each output to its ``temp_path`` first, so that
    name is checked like the output's own.  An output that is a directory
    is refused even when forced.  A ``None`` entry is an optional output
    that was not asked for.
    """
    paths = [Path(p) for p in paths if p is not None]
    names = [(name, path) for path in paths for name in (path, Path(temp_path(path)))]
    seen = {}
    for name, path in names:
        first = seen.setdefault(name.resolve(), path)
        if first is not path:
            raise ValueError(f"two outputs name the same file: {first} and {path}")
        if not path.parent.is_dir():
            raise ValueError(f"output directory of {path} does not exist")
        if name.is_dir():
            raise ValueError(f"output {name} is a directory")
    existing = [str(name) for name, _ in names if name.exists()]
    if existing and not force:
        raise ValueError(f"output already exists (pass --force to overwrite): {existing[0]}")


def _output_dir(doc_value, flag_value) -> Path:
    """The flag, else a non-empty ``LALEARN_OUTPUT_DIR``, else the config field."""
    if flag_value == "":
        raise ValueError("--output-dir must not be empty")
    if doc_value == "":
        raise ValueError("field 'output_dir' must not be empty")
    env = os.environ.get(OUTPUT_DIR_ENV)
    chosen = flag_value or env or doc_value
    source = "--output-dir" if flag_value else OUTPUT_DIR_ENV if env else "field 'output_dir'"
    if chosen is None:
        raise ValueError("no output directory configured")
    out = Path(chosen)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out} from {source}: {exc.strerror}")
    return out


# ---- build-strategy ----------------------------------------------------


def cmd_build_strategy(args) -> int:
    what = args.config   # read_fields names the config file in its errors
    with _reading("build-strategy"):
        doc = _load_config(args.config, seed=args.seed, output=args.output)
        config = read_fields(doc, _BUILD_CONFIG, what, "config")
        mc = MonteCarloConfig(
            **{key: config[key] for key in MONTE_CARLO_SCHEMA},
            classifier=_forest_config(config["classifier"], ForestConfig(), what),
            regressor=_forest_config(config["regressor"], regressor_config(), what))

        representative = config["representative"]
        if "cold_start" in representative:
            cold = read_fields(representative, _COLD_START_REPRESENTATIVE, what,
                               "representative")["cold_start"]
            if "test_fraction" in doc:
                raise ValueError("field 'test_fraction' needs a dataset representative, "
                                 "not cold_start")
            train, test = cold_start_data(
                mc.seed, **read_fields(cold or {}, _COLD_START, what, "cold_start"))
        else:
            dataset = _dataset_from_spec(representative, mc.seed, what)
            train, test = split(dataset, config["test_fraction"],
                                derive_seed(mc.seed, "representative_split"))
        if mc.size_max >= len(train):
            raise ValueError(f"size_max ({mc.size_max}) must be smaller than the "
                             f"representative train set ({len(train)} rows)")

        output = Path(config["output"])
        _check_overwrite([output, args.rows_out], args.force)
    strategy, rows = build_lal(mc, train, test, config["method"], workers=args.workers)

    save_strategy(strategy, output)
    if args.rows_out:
        rows.to_csv(args.rows_out)
    importances = strategy.regressor.feature_importances()
    print(f"built {strategy.name} strategy from {len(rows)} simulated acquisitions")
    print(f"regressor: {strategy.regressor.n_trees} trees, "
          f"top feature weight {importances.max():.3f}")
    print(f"wrote {output}")
    return EXIT_OK


# ---- run ----------------------------------------------------------------


def _resolve_strategies(specs) -> list[Strategy]:
    if not specs:
        raise ValueError("field 'strategies' must name at least one strategy")
    strategies: list[Strategy] = []
    for spec in specs:
        if not isinstance(spec, str):
            raise ValueError(f"field 'strategies' must list names or files, got {spec!r}")
        if spec in BUILTIN_KINDS:
            strategies.append(BUILTIN_KINDS[spec]())
        elif Path(spec).exists():
            strategies.append(load_strategy(spec))
        else:
            raise ValueError(f"strategy {spec!r} is neither a builtin "
                             f"{tuple(BUILTIN_KINDS)} nor an existing file")
    names = [s.name for s in strategies]
    if len(set(names)) != len(names):
        raise ValueError(f"field 'strategies' has duplicate names {names}")
    return strategies


def cmd_run(args) -> int:
    what = args.config
    with _reading("run"):
        config = read_fields(_load_config(args.config, seed=args.seed, budget=args.budget,
                                          repetitions=args.repetitions),
                             _RUN_CONFIG, what, "config")
        seed, budget, repetitions = config["seed"], config["budget"], config["repetitions"]
        metric, warm = config["metric"], config["warm_start_size"]

        strategies = _resolve_strategies(config["strategies"])
        dataset = _dataset_from_spec(config["dataset"], seed, what)
        classifier = _forest_config(config["classifier"], ForestConfig(), what)
        train, test = split(dataset, config["test_fraction"],
                            derive_seed(seed, "benchmark_split"))
        n_train = len(train)
        if warm is not None and warm >= n_train:
            raise ValueError(f"warm_start_size ({warm}) must be smaller than the "
                             f"train split ({n_train} rows)")
        initial = warm if warm is not None else 2
        if budget > n_train - initial:
            raise ValueError(f"budget {budget} exceeds the unlabeled pool "
                             f"({n_train - initial} after initialization)")

        out = _output_dir(config["output_dir"], args.output_dir)
        targets = [out / "summary.csv"]
        for s in strategies:
            targets += [out / f"{s.name}_curve.csv", out / f"{s.name}_curve.json",
                        out / f"{s.name}_selections.csv"]
        if args.svg:
            targets.append(out / "curves.svg")
        _check_overwrite(targets, args.force)
    curves, traces = run_repeated(train, test, strategies, budget, metric,
                                  repetitions, seed, classifier,
                                  warm_start_size=warm, workers=args.workers)
    for name, curve in curves.items():
        artifacts.curve_to_csv(curve, out / f"{name}_curve.csv")
        artifacts.curve_to_json(curve, out / f"{name}_curve.json")
        artifacts.selection_traces_to_csv(traces[name], out / f"{name}_selections.csv")
    artifacts.summary_to_csv(curves, out / "summary.csv")
    if args.svg:
        series = [(name, curve.budgets, curve.mean()) for name, curve in curves.items()]
        svg.line_plot(out / "curves.svg", series,
                      title=f"{dataset.name}: {metric} vs labels",
                      x_label="acquired labels", y_label=metric)
    for name, curve in curves.items():
        print(f"{name}: final {metric} {curve.mean()[-1]:.4f} "
              f"(std {curve.std()[-1]:.4f}, {repetitions} repetitions)")
    print(f"wrote {len(curves)} curves to {out}")
    return EXIT_OK


# ---- motivate ------------------------------------------------------------


def cmd_motivate(args) -> int:
    with _reading("motivate"):
        if args.repetitions < 1:
            raise ValueError("--repetitions must be at least 1")
        if args.bins < 2:
            raise ValueError("--bins must be at least 2")
        if args.pool_size < 3:
            raise ValueError("--pool-size must be at least 3 (two seed labels and a candidate)")
        if args.test_size < 2:
            raise ValueError("--test-size must be at least 2")
        if not 0.0 < args.separation < math.inf:
            raise ValueError("--separation must be a positive number")
        _check_overwrite([args.out, args.svg], args.force)
    curve = motivation_experiment(
        balanced=args.balanced, repetitions=args.repetitions, n_bins=args.bins,
        seed=args.seed, n_pool=args.pool_size, n_test=args.test_size,
        separation=args.separation, workers=args.workers)
    artifacts.motivation_to_csv(curve, args.out)
    if args.svg:
        svg.line_plot(args.svg, [("mean delta", curve.bin_centers, curve.mean_delta)],
                      title="loss reduction vs predicted probability",
                      x_label="p0 of candidate", y_label="mean 0/1 loss reduction")
    label = "balanced" if args.balanced else "unbalanced"
    print(f"{label}: most effective p0 bin centered at {curve.argmax_center():.3f} "
          f"({args.repetitions} repetitions)")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---- analyze --------------------------------------------------------------


def cmd_analyze(args) -> int:
    with _reading("analyze"):
        if not args.strategy and not args.traces:
            raise ValueError("provide --strategy and/or --traces")
        if args.bins < 1:
            raise ValueError("--bins must be at least 1")
        if args.strategy and not args.importances_out:
            raise ValueError("--strategy needs --importances-out")
        if args.traces and not args.histogram_out:
            raise ValueError("--traces needs --histogram-out")
        if args.strategy:
            strategy = load_strategy(args.strategy)
            if not isinstance(strategy, LalStrategy):
                raise ValueError(f"{args.strategy} is a {strategy.kind} strategy; "
                                 f"only learned strategies carry a regressor")
        traces = [trace for path in args.traces
                  for trace in artifacts.selection_traces_from_csv(path)]
        _check_overwrite([args.importances_out if args.strategy else None,
                          *([args.histogram_out, args.svg] if args.traces else [])],
                         args.force)
    if args.strategy:
        report = regressor_importance_report(strategy)
        artifacts.importance_report_to_csv(report, args.importances_out)
        for name, weight in report:
            print(f"{name}: {weight:.4f}")
        print(f"wrote {args.importances_out}")
    if args.traces:
        counts, edges = probability_histogram(traces, args.bins)
        artifacts.histogram_to_csv(counts, edges, args.histogram_out)
        if args.svg:
            svg.bar_chart(args.svg, edges, counts,
                          title="selected-probability histogram", x_label="p0")
        print(f"histogram over {int(counts.sum())} selections in {args.bins} bins")
        print(f"wrote {args.histogram_out}")
    return EXIT_OK


# ---- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lalearn",
        description="Active learning laboratory: learned query selection and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-strategy", help="train a selection strategy")
    build.add_argument("config", help="JSON build config")
    build.add_argument("--output", help="strategy file (overrides config)")
    build.add_argument("--rows-out", help="also export the regression set CSV")
    build.add_argument("--seed", type=int, help="override the config seed")
    build.add_argument("--workers", type=int, default=1)
    build.add_argument("--force", action="store_true", help="overwrite outputs")
    build.set_defaults(fn=cmd_build_strategy)

    run = sub.add_parser("run", help="benchmark strategies on a dataset")
    run.add_argument("config", help="JSON run config")
    run.add_argument("--output-dir", help="overrides config output_dir")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--budget", type=int, help="override the config budget")
    run.add_argument("--repetitions", type=int, help="override the config repetitions")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--svg", action="store_true", help="also emit curves.svg")
    run.add_argument("--force", action="store_true", help="overwrite outputs")
    run.set_defaults(fn=cmd_run)

    mot = sub.add_parser("motivate", help="loss reduction vs predicted probability")
    group = mot.add_mutually_exclusive_group(required=True)
    group.add_argument("--balanced", action="store_true", dest="balanced")
    group.add_argument("--unbalanced", action="store_false", dest="balanced")
    mot.add_argument("--repetitions", type=int, default=10000)
    mot.add_argument("--bins", type=int, default=20)
    mot.add_argument("--seed", type=int, required=True)
    mot.add_argument("--out", required=True, help="output CSV path")
    mot.add_argument("--svg", help="optional SVG path")
    mot.add_argument("--pool-size", type=int, default=100)
    mot.add_argument("--test-size", type=int, default=5000)
    mot.add_argument("--separation", type=float, default=2.0)
    mot.add_argument("--workers", type=int, default=1)
    mot.add_argument("--force", action="store_true", help="overwrite outputs")
    mot.set_defaults(fn=cmd_motivate)

    ana = sub.add_parser("analyze", help="inspect strategies and selection traces")
    ana.add_argument("--strategy", help="strategy file for the importance report")
    ana.add_argument("--importances-out", help="importance report CSV")
    ana.add_argument("--traces", nargs="*", default=[], help="selection trace CSVs")
    ana.add_argument("--histogram-out", help="histogram CSV")
    ana.add_argument("--bins", type=int, default=21)
    ana.add_argument("--svg", help="optional SVG path for the histogram")
    ana.add_argument("--force", action="store_true", help="overwrite outputs")
    ana.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _reading(args.command):
            if getattr(args, "workers", 1) < 1:
                raise ValueError("--workers must be at least 1")
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: runtime: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
