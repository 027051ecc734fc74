"""Subsequence similarity search (Faloutsos et al. 1994 — GEMINI's problem).

The original setting the GEMINI framework was built for: given one long
sequence, find where a short query pattern occurs.  All sliding windows of
the query length are reduced and indexed; matches are retrieved with the
same filter-and-refine machinery as whole-series search, and overlapping
hits are de-duplicated to the locally best offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..index.knn import SeriesDatabase
from ..kinds import IndexKind
from ..reduction.base import Reducer
from ..reduction.paa import PAA
from .windows import sliding_windows, windows_overlap

__all__ = ["SubsequenceMatch", "SubsequenceIndex"]


@dataclass(frozen=True)
class SubsequenceMatch:
    """One located occurrence of the query pattern."""

    start: int
    distance: float


class SubsequenceIndex:
    """Sliding-window index over one long sequence.

    Args:
        window: query/pattern length the index answers for.
        stride: window sampling stride (1 = every offset; larger trades
            recall granularity for index size).
        reducer: reduction method for window representations
            (default ``PAA(12)``).
        index: underlying structure (an :class:`repro.IndexKind` or ``None``).
    """

    def __init__(
        self,
        window: int,
        stride: int = 1,
        reducer: "Optional[Reducer]" = None,
        index: "Optional[IndexKind]" = IndexKind.DBCH,
    ):
        if window < 2:
            raise ValueError("window must be >= 2")
        if stride < 1:
            raise ValueError("stride must be positive")
        self.window = int(window)
        self.stride = int(stride)
        self.database = SeriesDatabase(reducer or PAA(12), index=index)
        self._starts: Optional[np.ndarray] = None

    def fit(self, sequence: np.ndarray) -> "SubsequenceIndex":
        """Index every window of ``sequence``."""
        windows, starts = sliding_windows(sequence, self.window, self.stride)
        self.database.ingest(windows)
        self._starts = starts
        return self

    # ------------------------------------------------------------------
    def search(self, pattern: np.ndarray, k: int = 3) -> "List[SubsequenceMatch]":
        """The ``k`` best non-overlapping occurrences of ``pattern``."""
        matches = self._raw_matches(pattern, oversample=4 * k)
        return self._deduplicate(matches)[:k]

    def range_search(self, pattern: np.ndarray, radius: float) -> "List[SubsequenceMatch]":
        """All non-overlapping occurrences within Euclidean ``radius``."""
        result = self.database.range_query(np.asarray(pattern, dtype=float), radius)
        matches = [
            SubsequenceMatch(start=int(self._starts[i]), distance=d)
            for i, d in zip(result.ids, result.distances)
        ]
        return self._deduplicate(matches)

    # ------------------------------------------------------------------
    def _raw_matches(self, pattern: np.ndarray, oversample: int) -> "List[SubsequenceMatch]":
        if self._starts is None:
            raise RuntimeError("fit the index before searching")
        pattern = np.asarray(pattern, dtype=float)
        if pattern.shape[0] != self.window:
            raise ValueError(
                f"pattern length {pattern.shape[0]} does not match window {self.window}"
            )
        result = self.database.knn(pattern, min(oversample, len(self.database.entries)))
        return [
            SubsequenceMatch(start=int(self._starts[i]), distance=d)
            for i, d in zip(result.ids, result.distances)
        ]

    def _deduplicate(self, matches: "List[SubsequenceMatch]") -> "List[SubsequenceMatch]":
        """Keep the best match per overlapping run of offsets."""
        kept: "List[SubsequenceMatch]" = []
        for match in sorted(matches, key=lambda m: m.distance):
            if not any(windows_overlap(match.start, k.start, self.window) for k in kept):
                kept.append(match)
        return kept
