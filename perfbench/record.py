"""Record the SHA-256 digests the benchmark checks its outputs against.

Run from the root of a checkout:

    python3 perfbench/record.py             # artifacts of one op per workload
    python3 perfbench/record.py --fixture   # first rebuild the al-run strategy

``--fixture`` rebuilds ``fixtures/lal_iterative.json`` from the recorded
config ``fixtures/lal_build.json``.  Without it the stored strategy is
kept, so a change to the build path does not change the ``al-run`` input.
The artifact digests are those of one full-scale op at the default seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fixture", action="store_true",
                        help="rebuild the al-run strategy from its recorded config")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    cli = run._import_cli()
    if args.fixture:
        code, err = run._call(cli.main, [
            "build-strategy", str(workloads.FIXTURES / "lal_build.json"),
            "--output", str(workloads.FIXTURE_STRATEGY), "--workers", "1", "--force"])
        if code != 0:
            print(f"fixture build failed: {err}", file=sys.stderr)
            return 1
    digests = {"fixtures": {workloads.FIXTURE_STRATEGY.name:
                            workloads.sha256(workloads.FIXTURE_STRATEGY)}}
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    captured: dict = {}
    run._capture_motivation(cli, captured)
    workdir = run.HERE / "_work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    for name, kind in workloads.WORKLOADS.items():
        workload = kind(workdir / name, workloads.DEFAULT_SEED, "full")
        workload.write_inputs()
        code, err = run._call(cli.main, workload.argv())
        problems = run._check(workload, code, err, captured)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        digests[name] = run._digests(workload)
        print(f"{name}: recorded {len(digests[name])} digests")
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
