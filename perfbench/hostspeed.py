"""Host speed: a fixed reference task timed beside the workload.

On a shared virtual machine the CPU itself runs faster or slower from one
minute to the next (a neighbour on the same core, cache and memory
contention, clock changes): on the 2-vCPU tuning host the reference tasks
below took anywhere from 3 to 6 ms, and a spell outlasts a run.  Window
medians cannot remove that; timing the same work against the same host
state can.  Every timed loop therefore runs a reference task — the same
work on every version of the program, never code under ``src/`` — at
regular points between its operations, and every end-to-end timing is
scaled by the task's nominal time over its time measured around it: it
reads as the time on a host that runs the task in its nominal time.  A
program that does less work reads faster; a host that runs everything
slower for a minute leaves the figures where they were.

A spell does not slow every kind of work alike, so each workload is
scaled by the task that moves with it: :data:`COMPUTE` (numpy calls on
short, cache-resident arrays driven from Python) with the in-process
search, :data:`MEMORY` (random reads over an array larger than the CPU
caches) with the disk-backed server.  Over fourteen rounds on the tuning
host each workload's rate moved with its own task at an elasticity of
about 0.9, and with the other task at 0.3 (``ingest_watch`` against
:data:`COMPUTE`) or 1.35 (``search_paper`` against :data:`MEMORY`).  The
match is not perfect, and repeats of the same work still differ by a few
per cent after scaling.
"""

from __future__ import annotations

import bisect
import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from stats import median

#: samples around an event that set its scale
NEAREST = 5

_ROWS = np.random.default_rng(20220329).standard_normal((64, 256))
_QUERY = _ROWS[0] + 0.1
_RECORD = {"op": "knn", "ids": list(range(8)), "distances": [0.5] * 8}


def compute_work() -> float:
    """Numpy calls on series-length vectors from a Python loop, plus small JSON frames.

    The result keeps the work from being skipped.
    """
    best = float("inf")
    total = 0.0
    for _ in range(6):
        for row in _ROWS:
            diff = row - _QUERY
            value = float(np.dot(diff, diff))
            if value < best:
                best = value
            total += float(row[::16].mean()) + float(np.abs(diff[:32]).max())
    for _ in range(40):
        total += len(json.loads(json.dumps(_RECORD))["ids"])
    return best + total


@functools.lru_cache(maxsize=None)
def _table() -> "Tuple[np.ndarray, np.ndarray]":
    """A 32 MB array, beyond the CPU caches, and 200,000 random places in it.

    Made on first use, so a workload scaled by :data:`COMPUTE` does not
    carry it in its peak RSS.
    """
    table = np.arange(4_000_000, dtype=np.float64)
    return table, np.random.default_rng(20220330).integers(0, len(table), 200_000)


def memory_work() -> float:
    """Reads 200,000 randomly placed values of a 32 MB array."""
    table, picks = _table()
    return float(np.take(table, picks).sum())


@dataclass(frozen=True)
class Reference:
    """A reference task and its time (ms) on the tuning host at its typical speed."""

    work: "Callable[[], float]"
    nominal_ms: float


COMPUTE = Reference(compute_work, 4.0)
MEMORY = Reference(memory_work, 3.5)


class HostClock:
    """Reference-task timings taken at points of a run, and the scales they give."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.samples: "List[Tuple[float, float]]" = []  # (end time, ms)

    def sample(self, times: int = 1) -> None:
        """Time the reference task ``times`` times."""
        for _ in range(times):
            t0 = time.perf_counter()
            self.reference.work()
            t1 = time.perf_counter()
            self.samples.append((t1, (t1 - t0) * 1000.0))

    def reference_ms(self) -> float:
        """Median reference time over every sample."""
        return median([ms for _when, ms in self.samples])

    def factor(self) -> float:
        """Scale that turns a time measured beside these samples into a reference time."""
        return self.reference.nominal_ms / self.reference_ms()

    def scale(self, events: "Sequence[Tuple[float, float]]") -> "List[Tuple[float, float]]":
        """``(when, duration)`` events, each duration scaled by the host speed around it.

        The speed is the median of the :data:`NEAREST` samples closest in
        time to the event's ``when``: local enough to follow a spell that
        starts mid-run, robust to one sample that an interrupt slowed.
        """
        times = [when for when, _ms in self.samples]
        scaled = []
        for when, value in events:
            at = bisect.bisect_left(times, when)
            lo = max(0, min(at - NEAREST // 2, len(times) - NEAREST))
            near = [ms for _when, ms in self.samples[lo:lo + NEAREST]]
            scaled.append((when, value * self.reference.nominal_ms / median(near)))
        return scaled
