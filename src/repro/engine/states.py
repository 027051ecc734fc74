"""Per-query search state machines, stepped in vectorised rounds.

Each query owns one state object — :class:`ScanState` for the tree-less
GEMINI filtered scan, :class:`TreeState` for the best-first DBCH/R-tree
walk.  A state alternates between :meth:`~_QueryState.advance` (emit the
series ids it needs verified next, or finish) and :meth:`~_QueryState.feed`
(absorb their exact distances).  The engine drives many states in lockstep
and resolves all pending (query, candidate) pairs of a round in one NumPy
call; because every decision a state makes depends only on its own
accumulated state, a batch member answers exactly as the same query would
alone.

Each state collects its answer in a result collector: a :class:`TopK`
heap for k-NN, or a fixed-radius :class:`Within` set for range queries.
The search only reads the collector's ``full`` flag and ``threshold``, so
both query kinds share one best-first loop.

The verification budget is the collector's ``k`` on the first advance (the
first ``k`` survivors are always verified — the result heap is not full
yet, so no stop rule can fire between them) and ``lookahead`` (default 1)
afterwards, which reproduces the classic one-candidate-at-a-time
refinement loop and its verification counts exactly.  A range collector's
``k`` is unbounded, so a range query emits every survivor in its first
advance.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from ..index.entries import Entry
from ..index.knn import KNNResult
from ..kinds import IndexKind

__all__ = ["ScanState", "TreeState", "make_state", "gather_rows"]


class _Frontier:
    """Best-first priority queue mixing index nodes and leaf entries.

    Items sort by distance with a monotonically increasing tick as the
    tie-break, so equal-distance items pop in insertion order and payloads
    never need to be comparable.  Push counts per kind feed the search
    accounting (heap pushes, nodes/candidates pruned).

    Cascaded searches push items *unrefined* (kinds ``"uentry"`` /
    ``"unode"``) keyed by a cheap dominated bound, then :meth:`reinsert`
    them with the exact key **and the original tick** once they reach the
    front.  Reinsertion advances neither the tick nor the push counters, so
    the pop sequence of refined items — and every counter — is identical to
    a search that pushed exact keys from the start.
    """

    __slots__ = ("_heap", "_tick", "node_pushes", "entry_pushes")

    def __init__(self):
        self._heap: list = []
        self._tick = 0
        self.node_pushes = 0
        self.entry_pushes = 0

    def push_node(self, distance: float, node, refined: bool = True) -> None:
        self.node_pushes += 1
        self._push(distance, "node" if refined else "unode", node)

    def push_entry(self, bound: float, entry: Entry, refined: bool = True) -> None:
        self.entry_pushes += 1
        self._push(bound, "entry" if refined else "uentry", entry)

    def _push(self, key: float, kind: str, payload) -> None:
        self._tick += 1
        heapq.heappush(self._heap, (key, self._tick, kind, payload))

    def pop(self) -> "tuple[float, int, str, object]":
        return heapq.heappop(self._heap)

    def reinsert(self, key: float, tick: int, kind: str, payload) -> None:
        """Re-queue a popped item at its exact key, keeping its tick."""
        heapq.heappush(self._heap, (key, tick, kind, payload))

    @property
    def pushes(self) -> int:
        return self.node_pushes + self.entry_pushes

    def __bool__(self) -> bool:
        return bool(self._heap)


def gather_rows(data, series_ids: "List[int]") -> np.ndarray:
    """Stack the raw rows for ``series_ids`` into a ``(len, n)`` matrix.

    In-memory arrays fancy-index in one shot.  Disk-backed views exposing
    ``gather`` resolve the whole batch in one call (memory-mapped column
    slice, or a page-sequential batched read) with the physical I/O still
    charged per row; anything supporting only integer ``data[i]`` falls
    back to row-by-row reads.
    """
    if isinstance(data, np.ndarray):
        return data[np.asarray(series_ids, dtype=np.intp)]
    gather = getattr(data, "gather", None)
    if gather is not None:
        return gather(series_ids)
    return np.stack([np.asarray(data[int(sid)], dtype=float) for sid in series_ids])


def _query_cascade(db, ctx):
    """The database's per-query cascade, or ``None`` when unavailable."""
    cascade_of = getattr(db, "cascade", None)
    if not callable(cascade_of):
        return None
    return cascade_of().for_query(ctx)


class _QueryState:
    """Common machinery: the result collector, budget schedule and accounting."""

    def __init__(self, db, query: np.ndarray, collector, lookahead: int):
        self.db = db
        self.query = query
        self.ctx = db.query_context(query)
        self.collector = collector
        self.lookahead = lookahead
        self.verified = 0
        self.done = False
        self._advances = 0

    def advance(self) -> "List[int]":
        """Series ids to verify this round (may set :attr:`done`)."""
        if self.done:
            return []
        budget = self.collector.k if self._advances == 0 else self.lookahead
        self._advances += 1
        return self._collect(budget)

    def feed(self, series_ids: "List[int]", distances: np.ndarray) -> None:
        """Absorb the exact distances for the ids the last advance emitted."""
        for sid, dist in zip(series_ids, distances):
            self.collector.offer(float(dist), int(sid))
        self.verified += len(series_ids)

    def _collect(self, budget: int) -> "List[int]":
        raise NotImplementedError

    def finalize(self) -> KNNResult:
        """The query's result from whatever has been verified so far."""
        raise NotImplementedError

    def _ranked(self) -> "tuple[List[int], List[float]]":
        ranked = self.collector.ranked()
        return [sid for _, sid in ranked], [d for d, _ in ranked]


class ScanState(_QueryState):
    """GEMINI without a tree: bound every entry, verify in bound order.

    Bounds come from the suite's stacked batch bound when available (one
    NumPy pass over all entries) and otherwise from the scalar
    ``query_bound`` loop; candidates are ordered by ``(bound, series id)``
    and consumed until the next bound strictly exceeds the collector's
    threshold (the k-th best true distance, or a range query's radius).

    Without a stacked layout (adaptive representations, or the sequential
    baseline) the scalar loop is the dominant query cost, so that case runs
    the :mod:`bound cascade <repro.distance.cascade>` lazily instead: a heap
    of ``(cheap key, series id)`` pairs whose front is refined to the exact
    bound on demand.  Dominated cheap keys make both the stop rule and the
    ``(bound, id)`` emission order provably identical to the eager loop, so
    candidates, verifications and results do not change — only how many
    exact ``query_bound`` evaluations were needed to produce them.
    """

    def __init__(
        self,
        db,
        query,
        collector,
        lookahead: int,
        use_batch_bounds: bool,
        cascade: bool = True,
    ):
        super().__init__(db, query, collector, lookahead)
        self._lazy = None
        self._qc = None
        stacked = db.stacked_entries() if use_batch_bounds else None
        if stacked is None and cascade:
            qc = _query_cascade(db, self.ctx)
            if qc is not None:
                collection = qc.cascade.collection(db)
                keys = qc.cheap_keys(collection)
                heap = [
                    (key, sid, False, entry.representation)
                    for key, sid, entry in zip(
                        keys.tolist(), collection.sids.tolist(), db.entries
                    )
                ]
                heapq.heapify(heap)
                self._lazy = heap
                self._qc = qc
                self.n_candidates = len(heap)
                return
        if stacked is not None:
            sids, packed = stacked
            bounds = db.suite.query_bound_batch(self.ctx, packed)
        else:
            sids = np.array([e.series_id for e in db.entries], dtype=np.int64)
            bounds = np.array(
                [db.suite.query_bound(self.ctx, e.representation) for e in db.entries],
                dtype=float,
            )
        if len(sids):
            order = np.lexsort((sids, bounds))
            sids, bounds = sids[order], bounds[order]
        self._sids = sids
        self._bounds = bounds
        self._pos = 0
        self.n_candidates = len(sids)

    def _collect(self, budget: int) -> "List[int]":
        if self._lazy is not None:
            return self._collect_lazy(budget)
        pending: "List[int]" = []
        while len(pending) < budget and self._pos < len(self._sids):
            bound = self._bounds[self._pos]
            if self.collector.full and bound > self.collector.threshold:
                self.done = True
                return pending
            pending.append(int(self._sids[self._pos]))
            self._pos += 1
        if self._pos >= len(self._sids):
            self.done = True
        return pending

    def _collect_lazy(self, budget: int) -> "List[int]":
        pending: "List[int]" = []
        heap, qc = self._lazy, self._qc
        while len(pending) < budget and heap:
            key, sid, refined, rep = heap[0]
            if self.collector.full and key > self.collector.threshold:
                # Cheap keys are dominated: the heap minimum already above
                # the threshold means every exact bound still queued is too
                # — exactly when the eager loop's next bound would stop it.
                self.done = True
                return pending
            if refined:
                heapq.heappop(heap)
                pending.append(sid)
            else:
                heapq.heapreplace(heap, (qc.refine(rep), sid, True, rep))
        if not heap:
            self.done = True
        return pending

    def finalize(self) -> KNNResult:
        if self._qc is not None:
            self._qc.flush()
        ids, distances = self._ranked()
        return KNNResult(
            ids=ids,
            distances=distances,
            n_verified=self.verified,
            n_total=len(self.db.entries),
            nodes_visited=0,
            n_candidates=self.n_candidates,
            node_pushes=0,
            heap_pushes=0,
        )


class TreeState(_QueryState):
    """Best-first multi-step search (Hjaltason & Samet / Seidl & Kriegel).

    The priority queue mixes *nodes* (keyed by index-structure distance)
    and *entries* (keyed by the method's representation bound); an entry
    reaching the queue front is emitted for verification only while its
    bound does not strictly exceed the collector's threshold.  Pruning
    power then reflects exactly the tightness of the method's bound plus
    the index's navigation quality.

    With a :mod:`bound cascade <repro.distance.cascade>` available, leaf
    entries (and, on the DBCH-tree, node children) enter the queue keyed by
    their cheap dominated tier and are refined to the exact key only on
    reaching the front; tick-preserving reinsertion keeps the pop sequence
    of refined items — and hence results, verifications and all counters —
    identical to the single-bound walk.
    """

    def __init__(self, db, query, collector, lookahead: int, cascade: bool = True):
        super().__init__(db, query, collector, lookahead)
        self.frontier = _Frontier()
        self.visited = 0
        self._qc = _query_cascade(db, self.ctx) if cascade else None
        self._node_tier = self._qc is not None and db.index_kind == IndexKind.DBCH
        #: node keys that are navigation hints, not bounds (adaptive R-tree):
        #: they order the walk but may never stop it or skip a subtree.
        self._hint_nodes = not db.node_bounds_exact
        self.frontier.push_node(db.node_distance(self.ctx, db.tree.root), db.tree.root)

    def _collect(self, budget: int) -> "List[int]":
        pending: "List[int]" = []
        db, frontier, qc = self.db, self.frontier, self._qc
        while len(pending) < budget and frontier:
            dist, tick, kind, payload = frontier.pop()
            if self.collector.full and dist > self.collector.threshold:
                if not self._hint_nodes:
                    self.done = True
                    return pending
                if kind in ("entry", "uentry"):
                    continue  # entry bounds stay exact; node keys are hints
            if kind == "uentry":
                frontier.reinsert(qc.refine(payload.representation), tick, "entry", payload)
                continue
            if kind == "unode":
                qc.n_node_refine += 1
                frontier.reinsert(db.node_distance(self.ctx, payload), tick, "node", payload)
                continue
            if kind == "entry":
                pending.append(payload.series_id)
                continue
            self.visited += 1
            if payload.is_leaf:
                if qc is not None:
                    for entry in payload.entries:
                        frontier.push_entry(
                            qc.cheap(entry.representation), entry, refined=False
                        )
                else:
                    for entry in payload.entries:
                        frontier.push_entry(
                            db.suite.query_bound(self.ctx, entry.representation), entry
                        )
            elif self._node_tier:
                for child in payload.children:
                    frontier.push_node(qc.node_lower(child), child, refined=False)
            else:
                for child in payload.children:
                    frontier.push_node(db.node_distance(self.ctx, child), child)
        if not frontier:
            self.done = True
        return pending

    def finalize(self) -> KNNResult:
        if self._qc is not None:
            self._qc.flush()
        ids, distances = self._ranked()
        return KNNResult(
            ids=ids,
            distances=distances,
            n_verified=self.verified,
            n_total=len(self.db.entries),
            nodes_visited=self.visited,
            n_candidates=self.frontier.entry_pushes,
            node_pushes=self.frontier.node_pushes,
            heap_pushes=self.frontier.pushes,
        )


def make_state(
    db,
    query: np.ndarray,
    collector,
    lookahead: int,
    use_batch_bounds: bool,
    cascade: bool = True,
):
    """The right state machine for ``db``'s index configuration.

    ``collector`` is a fresh :class:`~repro.index.knn.TopK` (k-NN) or
    :class:`~repro.index.knn.Within` (range query) the state fills.
    """
    if db.tree is None:
        return ScanState(db, query, collector, lookahead, use_batch_bounds, cascade)
    return TreeState(db, query, collector, lookahead, cascade)
