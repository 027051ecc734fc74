"""Make the benchmark's modules and the program under test importable.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
