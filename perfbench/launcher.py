"""Traced server launcher: ``repro`` command line with the tracer installed.

Usage (``PYTHONPATH`` must reach the program's ``src``)::

    python perfbench/launcher.py --trace-out spans.json serve --database DIR ...

Installs :class:`tracer.Tracer` and enables the :mod:`repro.obs` counters
before any database is opened, runs ``repro.cli.main`` with the remaining
arguments, and writes the recorded spans to ``--trace-out`` when the
command returns (``repro serve`` returns after SIGINT).
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main(argv: "list[str]") -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: launcher.py --trace-out FILE <repro command ...>", file=sys.stderr)
        return 2
    out, command = argv[1], argv[2:]
    from repro import cli, obs

    tracer = Tracer().install()
    obs.enable()
    try:
        return cli.main(command)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
