"""Run one benchmark workload and print its result as one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload search_paper --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` beside this directory;
without it the run exits with status 2 before measuring anything.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit status is 1 when any answer was
wrong or any operation failed.  Scratch files live under
``.perfbench_work/`` in the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def workloads() -> dict:
    from ingest_watch import IngestWatch
    from search_paper import SearchPaper

    return {"search_paper": SearchPaper, "ingest_watch": IngestWatch}


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search_paper", "ingest_watch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # a terminated run still unwinds, so its server processes are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from common import Context
    from metrics import units

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(args.seed, args.seconds, bool(args.trace), src, work)
    try:
        tally, values = workloads()[args.workload]().run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    expected = units(ctx.trace)
    if set(values) != set(expected):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(expected))}")
    tally.report()
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in expected.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
