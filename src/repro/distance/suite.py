"""Per-method distance dispatch used by the k-NN engine and the DBCH-tree.

A :class:`DistanceSuite` packages, for one reduction method, the distances
indexing needs:

* ``query_bound(ctx, rep)`` — a (lower-bounding where the method admits one)
  estimate of ``Dist(Q, C)`` given the query context and a stored
  representation, used to decide whether a candidate's raw series must be
  fetched (this is what pruning power counts).
* ``pairwise(rep_a, rep_b)`` — a representation-to-representation distance,
  used by the DBCH-tree for its hulls, node splitting and branch picking.
* optionally ``stack`` / ``query_bound_batch`` — a vectorised form of
  ``query_bound`` over a whole collection at once, used by
  :class:`repro.engine.QueryEngine` to evaluate every candidate bound of a
  query in one NumPy pass instead of one Python call per entry.  Only the
  aligned equal-length methods (PLA, PAA, PAALM) admit a stacked layout;
  adaptive-length methods fall back to the scalar bound.

``mode`` arguments take a :class:`repro.kinds.DistanceMode`; anything else
raises immediately at suite-build time rather than deep inside the first
query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..kinds import DistanceMode, coerce_distance_mode
from ..reduction.base import Reducer
from .dist_ae import dist_ae
from .dist_lb import dist_lb
from .dist_par import dist_par
from .equal_length import dist_cheby, dist_paa, dist_pla
from .segmentwise import aligned_distance

__all__ = ["QueryContext", "DistanceSuite", "make_suite", "ADAPTIVE_METHODS"]

#: the methods the paper treats as adaptive-length (Dist_PAR family)
ADAPTIVE_METHODS = ("SAPLA", "APLA", "APCA")


@dataclass(frozen=True)
class QueryContext:
    """Everything the distance functions may need about the query."""

    series: np.ndarray
    representation: Any


@dataclass(frozen=True)
class DistanceSuite:
    """Distances for one method (see module docstring)."""

    method: str
    mode: str
    query_bound: Callable[[QueryContext, Any], float]
    pairwise: Callable[[Any, Any], float]
    #: build a stacked layout of many representations for the batch bound
    stack: "Optional[Callable[[Sequence[Any]], Any]]" = None
    #: vectorised ``query_bound`` over a stacked layout; returns one bound
    #: per stacked representation
    query_bound_batch: "Optional[Callable[[QueryContext, Any], np.ndarray]]" = None


# ----------------------------------------------------------------------
# stacked (vectorised) aligned bounds
# ----------------------------------------------------------------------
def _stack_aligned(representations: "Sequence[Any]") -> "tuple":
    """Pack aligned segmentations into ``(ends, A, B, c3, c2, c1)`` arrays.

    All representations must share one segment layout (the aligned methods
    guarantee this for equal-length collections); the per-segment Dist_S
    coefficients ``c3 = l(l-1)(2l-1)/6``, ``c2 = l(l-1)`` and ``c1 = l``
    are precomputed once.
    """
    first = representations[0]
    ends = first.right_endpoints
    for rep in representations:
        if rep.right_endpoints != ends:
            raise ValueError("stacked representations must share one segment layout")
    slopes = np.array([[seg.a for seg in rep] for rep in representations], dtype=float)
    intercepts = np.array(
        [[seg.b for seg in rep] for rep in representations], dtype=float
    )
    lengths = np.array([seg.length for seg in first], dtype=float)
    c3 = lengths * (lengths - 1) * (2 * lengths - 1) / 6.0
    c2 = lengths * (lengths - 1)
    return ends, slopes, intercepts, c3, c2, lengths


def _aligned_bound_batch(ctx: QueryContext, stacked: "tuple") -> np.ndarray:
    """Vectorised Dist_PLA / Dist_PAA against every stacked representation."""
    ends, slopes, intercepts, c3, c2, c1 = stacked
    rep_q = ctx.representation
    if rep_q.right_endpoints != ends:
        raise ValueError("query representation does not match the stacked layout")
    qa = np.array([seg.a for seg in rep_q], dtype=float)
    qb = np.array([seg.b for seg in rep_q], dtype=float)
    da = qa[None, :] - slopes
    db = qb[None, :] - intercepts
    total = (c3 * da * da + c2 * da * db + c1 * db * db).sum(axis=1)
    return np.sqrt(np.maximum(total, 0.0))


def make_suite(
    reducer: Reducer, mode: DistanceMode = DistanceMode.PAR
) -> DistanceSuite:
    """Build the distance suite for ``reducer``.

    ``mode`` selects the adaptive-method query bound: :class:`DistanceMode`
    members (``PAR`` — Dist_PAR, the paper's tight measure; ``LB`` —
    Dist_LB, the unconditional lower bound; ``AE`` — Dist_AE, tight but not
    lower-bounding).  Equal-length and symbolic methods ignore ``mode``.
    Validation is eager: anything but a :class:`DistanceMode` raises here,
    never mid-query.
    """
    mode = coerce_distance_mode(mode)
    name = reducer.name
    if name in ADAPTIVE_METHODS:
        if mode is DistanceMode.PAR:
            query = lambda ctx, rep: dist_par(ctx.representation, rep)
        elif mode is DistanceMode.LB:
            query = lambda ctx, rep: dist_lb(ctx.series, rep)
        else:
            query = lambda ctx, rep: dist_ae(ctx.series, rep)
        return DistanceSuite(
            method=name, mode=mode.value, query_bound=query, pairwise=dist_par
        )
    if name == "PLA":
        return DistanceSuite(
            method=name,
            mode="aligned",
            query_bound=lambda ctx, rep: dist_pla(ctx.representation, rep),
            pairwise=dist_pla,
            stack=_stack_aligned,
            query_bound_batch=_aligned_bound_batch,
        )
    if name in ("PAA", "PAALM"):
        return DistanceSuite(
            method=name,
            mode="aligned",
            query_bound=lambda ctx, rep: dist_paa(ctx.representation, rep),
            pairwise=dist_paa,
            stack=_stack_aligned,
            query_bound_batch=_aligned_bound_batch,
        )
    if name == "CHEBY":
        return DistanceSuite(
            method=name,
            mode="triangle",
            query_bound=lambda ctx, rep: dist_cheby(reducer, ctx.representation, rep),
            pairwise=lambda a, b: dist_cheby(reducer, a, b),
        )
    if name == "SAX":
        return DistanceSuite(
            method=name,
            mode="mindist",
            query_bound=lambda ctx, rep: reducer.mindist(ctx.representation, rep),
            pairwise=reducer.mindist,
        )
    raise ValueError(f"no distance suite for method {name!r}")
