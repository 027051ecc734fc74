"""Brute-force ground truth and the answer checker.

The oracle is a float64 NumPy scan over the raw rows with the program's
documented tie-break — ascending ``(distance, series id)`` — and it never
runs inside a timed region.  The checker compares one returned top-k with
the oracle's:

* every returned id must exist and be distinct, and its returned distance
  must equal the true distance of that id (to :data:`DISTANCE_RTOL`);
* the answer must come in the documented order, ascending
  ``(distance, id)`` by the returned distances themselves — the program
  sorts by its own float64 values, so this comparison is exact;
* the answer is *exact* when its k-th distance equals the true k-th
  distance (to the same tolerance) — then no closer series was dismissed;
* recall is the paper's Eq. (15): ``|returned ∩ true| / k``.

Comparing distances rather than id lists keeps exact near-ties from being
reported as misses, while a dismissed neighbour always shows, because
it makes the returned k-th distance larger than the true one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: relative tolerance on distances (the engine's float64 distances agree
#: with this oracle far more tightly; a wrong distance is off by far more)
DISTANCE_RTOL = 1e-9
_ATOL = 1e-12

#: rows per block of the brute-force scan
_BLOCK = 4096


def true_distances(data: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``query`` to every row, in float64."""
    data = np.asarray(data, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    out = np.empty(len(data))
    for start in range(0, len(data), _BLOCK):
        block = data[start:start + _BLOCK]
        out[start:start + len(block)] = np.sqrt(((block - query) ** 2).sum(axis=1))
    return out


def top_k(distances: np.ndarray, k: int) -> "tuple[np.ndarray, np.ndarray]":
    """The ``k`` smallest distances, ties broken by ascending id."""
    order = np.lexsort((np.arange(len(distances)), distances))[:k]
    return order, distances[order]


@dataclass(frozen=True)
class Verdict:
    """The checker's judgement of one answer."""

    valid: bool  # ids exist, are distinct and carry their true distances
    exact: bool  # valid and no true neighbour was dismissed
    recall: float  # paper Eq. (15)
    reason: str = ""


def check(
    distances: np.ndarray, k: int, ids: "Sequence[int]", returned: "Sequence[float]"
) -> Verdict:
    """Judge one returned top-k against the true ``distances`` of every row."""
    k = min(k, len(distances))
    truth_ids, truth = top_k(distances, k)
    ids = [int(i) for i in ids]
    returned = np.asarray(returned, dtype=np.float64)
    recall = len(set(ids) & set(int(i) for i in truth_ids)) / k if k else 1.0
    if len(ids) != k or len(returned) != k:
        return Verdict(False, False, recall, f"returned {len(ids)} of {k} neighbours")
    if len(set(ids)) != k or min(ids) < 0 or max(ids) >= len(distances):
        return Verdict(False, False, recall, f"bad ids {ids}")
    expected = distances[ids]
    if not np.allclose(returned, expected, rtol=DISTANCE_RTOL, atol=_ATOL):
        worst = int(np.argmax(np.abs(returned - expected)))
        return Verdict(
            False, False, recall,
            f"id {ids[worst]} returned distance {returned[worst]!r}, "
            f"true {expected[worst]!r}",
        )
    pairs = list(zip(returned.tolist(), ids))
    for place, (first, second) in enumerate(zip(pairs, pairs[1:])):
        if not first < second:
            return Verdict(
                False, False, recall,
                f"places {place} and {place + 1} out of (distance, id) order: "
                f"{first!r} before {second!r}",
            )
    exact = bool(np.isclose(returned.max(), truth[-1], rtol=DISTANCE_RTOL, atol=_ATOL))
    reason = "" if exact else (
        f"k-th distance {returned.max()!r} > true {truth[-1]!r} (dismissal)"
    )
    return Verdict(True, exact, recall, reason)
