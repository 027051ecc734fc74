"""Order statistics shared by the workloads and the tracer.

Timings on a shared machine drift for seconds at a time when a neighbour
takes the CPU.  The workloads therefore report window medians: the timed
region is cut into equal windows, each window gets its own statistic,
and the median over windows is reported, so a slow spell that covers
less than half of the windows does not move the result.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

#: windows a timed region is cut into for window medians
WINDOWS = 8


def percentile(values: "Sequence[float]", q: float) -> float:
    """The ``q``-th percentile by linear interpolation (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


def median(values: "Sequence[float]") -> float:
    return percentile(values, 50.0)


def _split(events: "Sequence[Tuple[float, float]]", start: float, end: float, windows: int):
    """Event values grouped by which of ``windows`` equal windows their time falls in."""
    width = (end - start) / windows
    groups: "List[List[float]]" = [[] for _ in range(windows)]
    for when, value in events:
        index = min(int((when - start) / width), windows - 1) if width > 0 else 0
        if index >= 0:
            groups[index].append(value)
    return groups, width


def window_stat(
    events: "Sequence[Tuple[float, float]]",
    start: float,
    end: float,
    stat: Callable[[Sequence[float]], float],
    windows: int = WINDOWS,
) -> float:
    """Median over non-empty windows of ``stat`` of the window's values."""
    groups, _ = _split(events, start, end, windows)
    per_window = [stat(group) for group in groups if group]
    return median(per_window) if per_window else float("inf")
