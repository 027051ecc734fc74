"""The traced run's span recorder: wrappers around each layer's public calls.

Nothing inside ``src/`` is changed.  :meth:`Tracer.install` replaces a
fixed list of public callables — one or two per layer — with wrappers that
record a span ``(id, parent id, thread id, name, start, end, size)`` per
call.  The active-span stack is per thread, because the server runs
queries and mutations on a thread pool while frames are encoded and
decoded on its event-loop thread.  Spans are appended to an in-memory list
and written out when the run ends; a layer's *self time* is its span time
minus the time of its child spans (children always run on the parent's
thread, nested inside it).

Clock: ``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and
is therefore comparable across the benchmark and server processes; the
benchmark selects the server spans of its timed window by start time.

Counts come from the program's own :mod:`repro.obs` counters, which only
the traced run enables.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: span names, grouped by the layer they time
LAYER_OF = {
    "reduction.transform": "reduction",
    "reduction.transform_batch": "reduction",
    "distance.bound": "distance",
    "distance.bound_batch": "distance",
    "index.insert": "index",
    "engine.knn_batch": "engine",
    "storage.get_rows": "storage",
    "storage.put_row": "storage",
    "lifecycle.wal_append": "lifecycle",
    "lifecycle.wal_sync": "lifecycle",
    "continuous.insert": "continuous",
    "serving.encode": "serving",
    "serving.decode": "serving",
}


def _rows(args, kwargs) -> int:
    """Row count of the second positional argument (a matrix or id list)."""
    value = args[1] if len(args) > 1 else next(iter(kwargs.values()), ())
    try:
        return len(value)
    except TypeError:
        return 1


class Tracer:
    """Records spans from wrapped callables; see the module docstring."""

    def __init__(self):
        self.spans: "List[tuple]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: "List[tuple]" = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, fn: Callable, size: "Optional[Callable]" = None) -> Callable:
        """A wrapper around ``fn`` that records one ``name`` span per call."""
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((
                    span_id, parent, threading.get_ident(), name, start, end,
                    size(args, kwargs) if size is not None else 1,
                ))

        traced.__wrapped_by_tracer__ = True
        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a wrapper."""
        original = owner.__dict__[attr]
        if getattr(original, "__wrapped_by_tracer__", False):
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def install(self) -> "Tracer":
        """Wrap every layer's public entry points (idempotent per callable)."""
        from repro.continuous import ContinuousEvaluator
        from repro.engine import QueryEngine
        from repro.index import knn as knn_module
        from repro.index.dbch import DBCHTree
        from repro.index.knn import SeriesDatabase
        from repro.lifecycle.wal import WriteAheadLog
        from repro.reduction.base import Reducer
        from repro.serving import protocol, server
        from repro.storage.database import DiskBackedDatabase
        from repro.storage.pages import PagedSeriesStore

        for cls in _subclasses(Reducer):
            if "transform" in cls.__dict__:
                self.patch(cls, "transform", "reduction.transform")
            if "transform_batch" in cls.__dict__:
                self.patch(cls, "transform_batch", "reduction.transform_batch", _rows)
        for cls in (SeriesDatabase, DiskBackedDatabase, QueryEngine):
            self.patch(cls, "knn_batch", "engine.knn_batch", _rows)
        self.patch(DBCHTree, "insert", "index.insert")
        self.patch(PagedSeriesStore, "get_rows", "storage.get_rows", _rows)
        self.patch(PagedSeriesStore, "put_row", "storage.put_row")
        self.patch(WriteAheadLog, "append_insert", "lifecycle.wal_append")
        self.patch(WriteAheadLog, "sync", "lifecycle.wal_sync")
        self.patch(ContinuousEvaluator, "insert", "continuous.insert")
        # the server's reply path calls encode_frame through its own import;
        # read_frame hands the frame body to protocol._decode once it has
        # arrived, so wrapping that times decoding without the socket wait
        self.patch(server, "encode_frame", "serving.encode")
        self.patch(protocol, "_decode", "serving.decode")
        # the database's distance suite is built per database by make_suite,
        # whose bound callables are plain attributes of a frozen dataclass
        original = knn_module.__dict__["make_suite"]
        if not getattr(original, "__wrapped_by_tracer__", False):
            wrap = self.wrap

            @functools.wraps(original)
            def make_traced_suite(*args, **kwargs):
                suite = original(*args, **kwargs)
                changes = {"query_bound": wrap("distance.bound", suite.query_bound)}
                if suite.query_bound_batch is not None:
                    changes["query_bound_batch"] = wrap(
                        "distance.bound_batch", suite.query_bound_batch
                    )
                return dataclasses.replace(suite, **changes)

            make_traced_suite.__wrapped_by_tracer__ = True
            self._patched.append((knn_module, "make_suite", original))
            knn_module.make_suite = make_traced_suite
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- persistence -------------------------------------------------------
    def dump(self, path) -> None:
        """Write the recorded spans as JSON."""
        with open(path, "w") as handle:
            json.dump({"spans": list(self.spans)}, handle)

    @staticmethod
    def load(path) -> "List[tuple]":
        with open(path) as handle:
            return [tuple(span) for span in json.load(handle)["spans"]]


def _subclasses(cls) -> "Iterable[type]":
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpanStats:
    """Aggregates of one span name inside a window."""

    calls: int = 0  # outermost calls: not nested in a span of the same layer
    size: int = 0  # summed size (rows, queries) of the outermost calls
    total_s: float = 0.0  # summed duration of every call
    self_s: float = 0.0  # summed self time of every call


def analyse(spans: "List[tuple]", start: float, end: float) -> "Dict[str, SpanStats]":
    """Per-name call counts, sizes and self times of spans in ``[start, end]``.

    A span belongs to the window when it started inside it.  Self time is
    duration minus the summed duration of direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_s: "Dict[int, float]" = defaultdict(float)
    for span_id, parent, _tid, _name, t0, t1, _size in spans:
        if parent:
            child_s[parent] += t1 - t0
    out: "Dict[str, SpanStats]" = defaultdict(SpanStats)
    for span_id, parent, _tid, name, t0, t1, size in spans:
        if not start <= t0 <= end or name not in LAYER_OF:
            continue
        stats = out[name]
        duration = t1 - t0
        stats.total_s += duration
        stats.self_s += max(duration - child_s.get(span_id, 0.0), 0.0)
        outer = by_id.get(parent)
        if outer is None or LAYER_OF.get(outer[3]) != LAYER_OF[name]:
            stats.calls += 1
            stats.size += size
    return out


def top_level_seconds(spans: "List[tuple]", start: float, end: float) -> float:
    """Summed duration of root spans (no parent) that started in the window."""
    return sum(s[5] - s[4] for s in spans if not s[1] and start <= s[4] <= end)
