"""Benchmark of lalearn's three CLI paths, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload al-run --seed 1 --seconds 20 --trace 0

The workload's set-up (import, config writing, input checks and a tiny
warm-up op) is repeated and timed; then the workload's op, one call of
``lalearn.cli.main`` with ``--workers 1``, repeats until ``--seconds``
have passed.  Every op's artifacts are validated, must be byte-identical
across the ops of a run and, at the default seed, match the digests in
``digests.json``.  Times are scaled to the speed of a reference kernel
run around each set-up and op (see ``calibrate.py``).  ``--trace 1``
alternates untraced and traced ops and reports the per-layer table
instead of the end-to-end metrics.  The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import os

# pinned before numpy loads, so BLAS stays single-threaded in this process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LALEARN_OUTPUT_DIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import SetupError  # noqa: E402

SETUP_REPS = 9
MIN_OPS = 3
MIN_TRACED_OPS = 2
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


def _import_cli():
    """Import ``lalearn.cli`` afresh, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "lalearn" or m.startswith("lalearn.")]:
        del sys.modules[name]
    cli = importlib.import_module("lalearn.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"lalearn was imported from {cli.__file__}, not from {SRC}")
    return cli


def _capture_motivation(cli, captured: dict) -> None:
    """Keep the curve ``motivate`` computes; its bin counts are not in the CSV."""
    original = cli.motivation_experiment

    def capturing(*args, **kwargs):
        captured["motivation"] = curve = original(*args, **kwargs)
        return curve

    cli.motivation_experiment = capturing


def _call(main, argv) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, stderr.getvalue().strip()


def _check(workload, code: int, err: str, captured: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {err}"]
    return workload.validate(captured)


def _digests(workload) -> dict:
    return {p.name: workloads.sha256(p) for p in workload.artifacts()}


def set_up(name: str, seed: int, scale: str, workdir: Path, captured: dict):
    """One set-up: import, write inputs, check them and run a tiny warm-up op."""
    cli = _import_cli()
    _capture_motivation(cli, captured)
    workload = workloads.WORKLOADS[name](workdir / "op", seed, scale)
    workload.write_inputs()
    warmup = workloads.WORKLOADS[name](workdir / "warmup", seed, "tiny")
    warmup.write_inputs()
    captured.clear()
    code, err = _call(cli.main, warmup.argv())
    problems = _check(warmup, code, err, captured)
    if problems:
        raise SetupError(f"warm-up op failed: {problems}")
    return cli, workload


def provenance(args) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "lalearn").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": _git_sha(), "source_sha256": source.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "LALEARN_OUTPUT_DIR": os.environ.get("LALEARN_OUTPUT_DIR"),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Clock:
    """Times work between runs of the reference kernel.

    Returns each raw time with the factor that scales it to the reference
    speed: ``REF_S`` over the mean of the kernel runs just before and just
    after the work.
    """

    def __init__(self):
        self.reference = calibrate.Reference()
        self.reference.run()  # the first pass pays for cold caches
        self.ref_times = [self.reference.run()]

    def time(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.ref_times.append(self.reference.run())
        factor = 2 * calibrate.REF_S / (self.ref_times[-2] + self.ref_times[-1])
        return result, elapsed, factor


def run(args) -> dict:
    if not (SRC / "lalearn" / "cli.py").is_file():
        raise SetupError(f"no lalearn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    workdir = HERE / "_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    captured: dict = {}
    clock = Clock()

    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        (cli, workload), elapsed, factor = clock.time(
            set_up, args.workload, args.seed, args.scale, workdir, captured)
        setup_raw.append(elapsed)
        setup_scaled.append(elapsed * factor)

    check_recorded = args.seed == workloads.DEFAULT_SEED and args.scale == "full"
    recorded = workloads.recorded_digests()[args.workload] if check_recorded else None
    tracer = layers.Tracer()
    walls_raw, walls, traced_ops, failures = [], [], [], []
    first = None
    deadline = time.perf_counter() + args.seconds
    op = 0
    while True:
        traced = bool(args.trace) and op % 2 == 1
        main = cli.main
        if traced:
            tracer.install()
            main = tracer.root(cli.main)
        captured.clear()
        (code, err), wall, factor = clock.time(_call, main, workload.argv())
        if traced:
            tracer.uninstall()
            spans, counts = tracer.take()
            traced_ops.append((spans, counts, wall, factor))
        else:
            walls_raw.append(wall)
            walls.append(wall * factor)
        problems = _check(workload, code, err, captured)
        if not problems:
            digests = _digests(workload)
            first = first or digests
            if digests != first:
                problems.append("artifacts differ from the first op of this run")
            if recorded is not None and digests != recorded:
                problems.append("artifacts differ from the digests recorded for the default seed")
        if problems:
            failures.append({"op": op, "problems": problems})
        op += 1
        enough = (len(walls) >= MIN_OPS if not args.trace
                  else min(len(walls), len(traced_ops)) >= MIN_TRACED_OPS)
        if enough and time.perf_counter() >= deadline:
            break

    if args.trace:
        metrics = layers.layer_metrics(traced_ops, walls)
        units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
        layers.dump_spans(traced_ops, workdir / "spans.jsonl")
        if tracer.missing:
            print(f"not traced (absent): {tracer.missing}", file=sys.stderr)
    else:
        wall_s = median(walls)
        metrics = {"setup_s": median(setup_scaled), "wall_s": wall_s,
                   "work_per_s": workload.work() / wall_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(END_TO_END)
    result = {"correct": not failures, "attempted": op, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    raw = {"setup_s": median(setup_raw), "wall_s": median(walls_raw),
           "reference_s": median(clock.ref_times)}
    record = {"provenance": provenance(args), "result": result, "raw_medians": raw,
              "setup_raw": setup_raw, "setup_scaled": setup_scaled,
              "untraced_raw": walls_raw, "untraced_scaled": walls,
              "traced_raw": [t[2] for t in traced_ops],
              "reference_times": clock.ref_times,
              "work_per_op": workload.work(), "work_unit": workload.unit,
              "failures": failures}
    suffix = "_trace" if args.trace else ""
    (HERE / "_work" / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        layers.print_table(metrics, units)
    for failure in failures:
        print(f"op {failure['op']} failed: {failure['problems']}", file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("unscaled " + json.dumps(raw, sort_keys=True))
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs the warm-up sizes; for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
