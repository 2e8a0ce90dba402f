"""Command-line front end.

Subcommands: ``build-strategy``, ``run``, ``motivate``, ``analyze``.
Experiments are described by JSON config files (``config_format: 1``);
selected flags override config fields.  Every command is a pure function
of (config, input files, seed): reruns produce byte-identical outputs.

Exit codes: 0 success, 2 config validation failure, 3 runtime failure.
The only environment dependence is ``LALEARN_OUTPUT_DIR``, which overrides
the output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import artifacts, svg
from .data import Dataset, gen_banana, gen_checkerboard, gen_gaussian_clouds, load_csv, split
from .forest import ForestConfig, regressor_config
from .harness import check_repetition_splits, motivation_experiment, \
    probability_histogram, regressor_importance_report, run_repeated
from .metrics import METRIC_IDS
from .seeding import derive_seed
from .strategies import BUILD_METHODS, LalStrategy, RandomStrategy, Strategy, \
    UncertaintyStrategy, load_strategy, save_strategy
from .training import MonteCarloConfig, build_lal, cold_start_data

CONFIG_FORMAT = 1
OUTPUT_DIR_ENV = "LALEARN_OUTPUT_DIR"
EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME = 0, 2, 3

BUILTIN_STRATEGIES = ("random", "uncertainty")


class ConfigError(Exception):
    """Invalid configuration or inputs; maps to exit code 2."""


def _fail(message: str) -> None:
    raise ConfigError(message)


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        _fail(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        _fail(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail(f"config file {path} must contain a JSON object")
    if doc.get("config_format") != CONFIG_FORMAT:
        _fail(f"config_format must be {CONFIG_FORMAT}, got {doc.get('config_format')!r}")
    return doc


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object"}


def _require(doc: dict, key: str, kind, what: str, default=_REQUIRED):
    """``doc[key]`` checked to be of ``kind``; ``default`` when absent, if given.

    A ``float`` field accepts integers too; no field accepts a boolean.
    """
    if key not in doc:
        if default is _REQUIRED:
            _fail(f"{what}: missing required field {key!r}")
        return default
    value = doc[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        _fail(f"{what}: field {key!r} must be {_KIND_NAMES[kind]}")
    return value


def _present(doc: dict, kinds: dict, what: str) -> dict:
    """The fields of ``kinds`` that ``doc`` sets, each checked by ``_require``."""
    return {key: _require(doc, key, kind, what) for key, kind in kinds.items() if key in doc}


def _known_keys(doc: dict, allowed, what: str, label: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        _fail(f"{what}: unknown {label} keys {sorted(unknown)}")


def _forest_config(doc: dict | None, base: ForestConfig, what: str) -> ForestConfig:
    if doc is None:
        return base
    if not isinstance(doc, dict):
        _fail(f"{what}: forest config must be an object")
    _known_keys(doc, ("n_trees", "max_depth", "min_leaf_size", "features_per_split"),
                what, "forest config")
    for key, value in doc.items():
        if value is not None or key not in ("max_depth", "features_per_split"):
            _require(doc, key, int, what)
    try:
        return ForestConfig(mode=base.mode, **{**{
            "n_trees": base.n_trees, "max_depth": base.max_depth,
            "min_leaf_size": base.min_leaf_size,
            "features_per_split": base.features_per_split}, **doc})
    except (TypeError, ValueError) as exc:
        _fail(f"{what}: {exc}")


_DATASET_KEYS = {
    "csv": ("csv", "label_column"),
    "gaussian_clouds": ("generator", "seed", "n", "class0_fraction", "separation", "dim"),
    "checkerboard": ("generator", "seed", "k", "n", "label_noise"),
    "banana": ("generator", "seed", "n", "noise"),
}


def _dataset_from_spec(spec, seed: int, what: str) -> Dataset:
    if not isinstance(spec, dict):
        _fail(f"{what}: dataset spec must be an object")
    kind = "csv" if "csv" in spec else spec.get("generator")
    if isinstance(kind, str) and kind in _DATASET_KEYS:
        _known_keys(spec, _DATASET_KEYS[kind], what, "dataset")

    def field(key, kind, default):
        return _require(spec, key, kind, what, default)

    if "csv" in spec:
        path = field("csv", str, None)
        if not Path(path).exists():
            _fail(f"{what}: dataset file not found: {path}")
        try:
            return load_csv(path, field("label_column", str, "label"))
        except ValueError as exc:
            _fail(f"{what}: {exc}")
    generator = spec.get("generator")
    gen_seed = field("seed", int, derive_seed(seed, "dataset"))
    try:
        if generator == "gaussian_clouds":
            return gen_gaussian_clouds(
                n=field("n", int, 2000),
                class0_fraction=field("class0_fraction", float, 0.5),
                separation=field("separation", float, 2.0),
                dim=field("dim", int, 2), seed=gen_seed)
        if generator == "checkerboard":
            return gen_checkerboard(k=field("k", int, 2), n=field("n", int, 2000),
                                    seed=gen_seed,
                                    label_noise=field("label_noise", float, 0.0))
        if generator == "banana":
            return gen_banana(n=field("n", int, 2000), noise=field("noise", float, 0.2),
                              seed=gen_seed)
    except ValueError as exc:
        _fail(f"{what}: {exc}")
    _fail(f"{what}: dataset spec needs 'csv' or a known 'generator' "
          f"(gaussian_clouds | checkerboard | banana)")


def _check_overwrite(paths: list[Path], force: bool) -> None:
    existing = [str(p) for p in paths if p.exists()]
    if existing and not force:
        _fail(f"output already exists (pass --force to overwrite): {existing[0]}")


def _output_dir(doc_value, flag_value) -> Path:
    env = os.environ.get(OUTPUT_DIR_ENV)
    chosen = flag_value or env or doc_value
    if chosen is None:
        _fail("no output directory configured")
    if not isinstance(chosen, str):
        _fail("run config: field 'output_dir' must be a string")
    out = Path(chosen)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---- build-strategy ----------------------------------------------------


def cmd_build_strategy(args) -> int:
    what = "build config"
    doc = _load_config(args.config)
    seed = args.seed if args.seed is not None else _require(doc, "seed", int, what)
    method = _require(doc, "method", str, what)
    if method not in BUILD_METHODS:
        _fail(f"{what}: method must be independent or iterative, got {method!r}")
    try:
        mc = MonteCarloConfig(
            **_present(doc, {"size_min": int, "size_max": int, "initializations": int,
                             "candidates": int, "test_loss": str}, what),
            classifier=_forest_config(doc.get("classifier"), ForestConfig(), what),
            regressor=_forest_config(doc.get("regressor"), regressor_config(), what),
            seed=seed)
    except ValueError as exc:
        _fail(f"{what}: {exc}")

    output = Path(args.output or doc.get("output") or _fail(f"{what}: missing 'output'"))
    _check_overwrite([output], args.force)

    representative = _require(doc, "representative", dict, what, {"cold_start": {}})
    try:
        if "cold_start" in representative:
            cold = representative["cold_start"] or {}
            if not isinstance(cold, dict):
                _fail(f"{what}: field 'cold_start' must be an object")
            kinds = {"n_train": int, "n_test": int, "separation": float,
                     "class0_fraction": float}
            _known_keys(cold, kinds, what, "cold_start")
            train, test = cold_start_data(seed, **_present(cold, kinds, what))
        else:
            dataset = _dataset_from_spec(representative, seed, what)
            fraction = _require(doc, "test_fraction", float, what, 0.5)
            train, test = split(dataset, fraction, derive_seed(seed, "representative_split"))
    except ValueError as exc:
        _fail(f"{what}: {exc}")
    if mc.size_max >= len(train):
        _fail(f"{what}: size_max ({mc.size_max}) must be smaller than the "
              f"representative train set ({len(train)} rows)")
    strategy, rows = build_lal(mc, train, test, method, workers=args.workers)

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


def _resolve_strategies(specs, what: str) -> list[Strategy]:
    if not specs:
        _fail(f"{what}: field 'strategies' must name at least one strategy")
    strategies: list[Strategy] = []
    for spec in specs:
        if not isinstance(spec, str):
            _fail(f"{what}: field 'strategies' must list names or files, got {spec!r}")
        if spec == "random":
            strategies.append(RandomStrategy())
        elif spec == "uncertainty":
            strategies.append(UncertaintyStrategy())
        else:
            if not Path(spec).exists():
                _fail(f"{what}: strategy {spec!r} is neither a builtin "
                      f"{BUILTIN_STRATEGIES} nor an existing file")
            try:
                loaded = load_strategy(spec)
            except ValueError as exc:
                _fail(f"{what}: {exc}")
            if isinstance(loaded, LalStrategy):
                loaded.training_metadata["source_file"] = str(spec)
            strategies.append(loaded)
    names = [s.name for s in strategies]
    if len(set(names)) != len(names):
        _fail(f"{what}: duplicate strategy names {names}")
    return strategies


def cmd_run(args) -> int:
    doc = _load_config(args.config)
    seed = args.seed if args.seed is not None else _require(doc, "seed", int, "run config")
    budget = args.budget if args.budget is not None else _require(doc, "budget", int, "run config")
    repetitions = (args.repetitions if args.repetitions is not None
                   else _require(doc, "repetitions", int, "run config", 50))
    metric = doc.get("metric", "accuracy")
    if metric not in METRIC_IDS:
        _fail(f"run config: unknown metric {metric!r}")
    if budget < 0 or repetitions < 1:
        _fail("run config: budget must be >= 0 and repetitions >= 1")
    test_fraction = _require(doc, "test_fraction", float, "run config", 0.5)
    if not 0.0 < test_fraction < 1.0:
        _fail("run config: test_fraction must lie strictly between 0 and 1")
    warm = doc.get("warm_start_size")
    if warm is not None and (not isinstance(warm, int) or warm < 2):
        _fail("run config: warm_start_size must be an integer >= 2")

    strategies = _resolve_strategies(
        _require(doc, "strategies", list, "run config"), "run config")
    dataset = _dataset_from_spec(_require(doc, "dataset", dict, "run config"),
                                 seed, "run config")
    classifier = _forest_config(doc.get("classifier"), ForestConfig(), "run config")
    try:
        train, test = split(dataset, test_fraction, derive_seed(seed, "benchmark_split"))
        check_repetition_splits(train, test, repetitions, seed)
    except ValueError as exc:
        _fail(f"run config: test_fraction {test_fraction} on dataset {dataset.name}: {exc}")

    n_train = len(train)
    if warm is not None and warm >= n_train:
        _fail(f"run config: warm_start_size ({warm}) must be smaller than the "
              f"train split ({n_train} rows)")
    initial = warm if warm is not None else 2
    if budget > n_train - initial:
        _fail(f"run config: budget {budget} exceeds the unlabeled pool "
              f"({n_train - initial} after initialization)")

    out = _output_dir(doc.get("output_dir"), args.output_dir)
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
    if args.repetitions < 1:
        _fail("motivate: --repetitions must be at least 1")
    if args.bins < 2:
        _fail("motivate: --bins must be at least 2")
    if args.pool_size < 3:
        _fail("motivate: --pool-size must be at least 3 (two seed labels and a candidate)")
    if args.test_size < 2:
        _fail("motivate: --test-size must be at least 2")
    if not 0.0 < args.separation < math.inf:
        _fail("motivate: --separation must be a positive number")
    out = Path(args.out)
    targets = [out] + ([Path(args.svg)] if args.svg else [])
    _check_overwrite(targets, args.force)
    curve = motivation_experiment(
        balanced=args.balanced, repetitions=args.repetitions, n_bins=args.bins,
        seed=args.seed, n_pool=args.pool_size, n_test=args.test_size,
        separation=args.separation, workers=args.workers)
    artifacts.motivation_to_csv(curve, out)
    if args.svg:
        svg.line_plot(args.svg, [("mean delta", curve.bin_centers, curve.mean_delta)],
                      title="loss reduction vs predicted probability",
                      x_label="p0 of candidate", y_label="mean 0/1 loss reduction")
    label = "balanced" if args.balanced else "unbalanced"
    print(f"{label}: most effective p0 bin centered at {curve.argmax_center():.3f} "
          f"({args.repetitions} repetitions)")
    print(f"wrote {out}")
    return EXIT_OK


# ---- analyze --------------------------------------------------------------


def cmd_analyze(args) -> int:
    if not args.strategy and not args.traces:
        _fail("analyze: provide --strategy and/or --traces")
    if args.bins < 1:
        _fail("analyze: --bins must be at least 1")
    if args.strategy:
        if not Path(args.strategy).exists():
            _fail(f"analyze: strategy file not found: {args.strategy}")
        if not args.importances_out:
            _fail("analyze: --strategy needs --importances-out")
        try:
            strategy = load_strategy(args.strategy)
        except ValueError as exc:
            _fail(f"analyze: {exc}")
        if not isinstance(strategy, LalStrategy):
            _fail(f"analyze: {args.strategy} is a {strategy.kind} strategy; "
                  f"only learned strategies carry a regressor")
        _check_overwrite([Path(args.importances_out)], args.force)
        report = regressor_importance_report(strategy)
        artifacts.importance_report_to_csv(report, args.importances_out)
        for name, weight in report:
            print(f"{name}: {weight:.4f}")
        print(f"wrote {args.importances_out}")
    if args.traces:
        if not args.histogram_out:
            _fail("analyze: --traces needs --histogram-out")
        for path in args.traces:
            if not Path(path).exists():
                _fail(f"analyze: trace file not found: {path}")
        _check_overwrite([Path(args.histogram_out)], args.force)
        traces = []
        for path in args.traces:
            try:
                traces.extend(artifacts.selection_traces_from_csv(path))
            except ValueError as exc:
                _fail(f"analyze: {exc}")
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
        if getattr(args, "workers", 1) < 1:
            _fail(f"{args.command}: --workers must be at least 1")
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: runtime: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
