"""Typed constructor vocabulary: index kinds and adaptive distance modes.

``IndexKind`` names the index structures the paper evaluates and
``DistanceMode`` the adaptive-method query bounds (paper Sec. 6).  Both are
``str`` subclasses, so they compare equal to their values and serialise
unchanged into ``config.json``.

Constructors take the enums only: the coercers below reject plain strings
with an error naming the enum member to use, so a typo or a stringly-typed
call site fails at construction, never deep inside the first query.
Boundaries that parse text (the CLI, saved configs, experiment specs)
convert with ``IndexKind(value)`` / ``DistanceMode(value)`` themselves.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

__all__ = ["IndexKind", "DistanceMode", "coerce_index_kind", "coerce_distance_mode"]


class IndexKind(str, Enum):
    """Index structure backing a :class:`repro.index.SeriesDatabase`.

    ``DBCH`` is the paper's distance-based covering tree, ``RTREE`` the
    Guttman baseline, and ``NONE`` the tree-less GEMINI filtered scan.
    """

    DBCH = "dbch"
    RTREE = "rtree"
    NONE = "none"

    def __str__(self) -> str:  # keep f-strings printing 'dbch', not the member
        return self.value


class DistanceMode(str, Enum):
    """Adaptive-method query-bound mode (see :func:`repro.distance.make_suite`).

    ``PAR`` is Dist_PAR (the paper's tight measure), ``LB`` is Dist_LB (the
    unconditional lower bound) and ``AE`` is Dist_AE (tight but not
    lower-bounding).  Equal-length and symbolic methods ignore the mode.
    """

    PAR = "par"
    LB = "lb"
    AE = "ae"

    def __str__(self) -> str:
        return self.value


def _enum_hint(enum, value) -> str:
    """How to spell ``value`` as a member of ``enum``, for error messages."""
    try:
        return f"use repro.{enum.__name__}.{enum(value).name}"
    except ValueError:
        return f"expected one of {[f'{enum.__name__}.{m.name}' for m in enum]}"


def coerce_index_kind(value: "Optional[IndexKind]") -> "Optional[IndexKind]":
    """Normalise an index argument to an :class:`IndexKind` (or ``None``).

    ``None`` and ``IndexKind.NONE`` both mean "no tree" and normalise to
    ``None``.  Anything else — plain strings included — raises
    ``ValueError`` immediately instead of at query time.
    """
    if value is None or value is IndexKind.NONE:
        return None
    if isinstance(value, IndexKind):
        return value
    raise ValueError(
        f"index must be a repro.IndexKind or None, got {value!r}: "
        f"{_enum_hint(IndexKind, value)}"
    )


def coerce_distance_mode(value: DistanceMode) -> DistanceMode:
    """Check that a distance-mode argument is a :class:`DistanceMode`.

    Anything else — plain strings included — raises ``ValueError`` eagerly
    so a typo cannot survive until the first adaptive-method query.
    """
    if isinstance(value, DistanceMode):
        return value
    raise ValueError(
        f"distance_mode must be a repro.DistanceMode, got {value!r}: "
        f"{_enum_hint(DistanceMode, value)}"
    )
