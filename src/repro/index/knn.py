"""GEMINI k-NN search over an indexed collection of time series.

The classic filter-and-refine loop (Faloutsos et al. 1994): navigate the
index best-first by node distance, filter leaf candidates with the method's
representation-level bound, and *verify* survivors against the raw series
with the true Euclidean distance.  Verification count over collection size
is the paper's pruning power (Eq. (14)); comparing returned neighbours with
a linear scan gives the accuracy (Eq. (15)).

Query execution itself lives in :mod:`repro.engine`; :meth:`SeriesDatabase.knn`
and :meth:`SeriesDatabase.range_query` are thin wrappers over
:meth:`repro.engine.QueryEngine.knn_batch` and
:meth:`~repro.engine.QueryEngine.range_query`, so sequential and batched
answers are identical by construction.  This module keeps the shared
building blocks: the :class:`TopK` result heap whose ``(distance, series
id)`` tie-break makes the tree search agree with :func:`linear_scan` on
equal distances, its fixed-radius counterpart :class:`Within` that range
queries search with, and the :func:`record_search` accounting shared by
every execution path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import obs
from ..distance.suite import ADAPTIVE_METHODS, QueryContext, make_suite
from ..kinds import DistanceMode, IndexKind, coerce_index_kind
from ..lifecycle.snapshot import MutableDatabase
from ..reduction.base import Reducer
from .bulk import bulk_load_dbch, bulk_load_rtree
from .dbch import DBCHTree
from .entries import Entry
from .mbr import feature_vector, feature_weights
from .rtree import RTree

__all__ = [
    "KNNResult",
    "SeriesDatabase",
    "TopK",
    "Within",
    "linear_scan",
    "record_search",
]

_INF = float("inf")

#: cache sentinel: stacking was attempted and is not applicable
_STACK_UNAVAILABLE = object()

#: rows per block when a ground-truth scan streams a disk-resident view
_SCAN_BLOCK_ROWS = 512


class TopK:
    """Fixed-capacity best-``k`` set with a stable ``(distance, id)`` tie-break.

    The heap holds ``(-distance, -series_id)`` so eviction always removes the
    lexicographically largest ``(distance, series_id)`` pair: among equal
    distances the *larger* id goes first, which keeps exactly the ``k``
    smallest ``(distance, id)`` pairs.  That matches the order
    :func:`linear_scan` produces with its stable argsort, so the tree search
    and the ground truth agree on ties by construction.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int):
        self.k = k
        self._heap: "list[tuple[float, int]]" = []

    def offer(self, distance: float, series_id: int) -> None:
        """Consider one verified candidate."""
        heapq.heappush(self._heap, (-distance, -series_id))
        if len(self._heap) > self.k:
            heapq.heappop(self._heap)

    @property
    def full(self) -> bool:
        """Whether ``k`` candidates have been retained."""
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """Current k-th best true distance (``inf`` until full).

        The search may stop once the next bound strictly exceeds this; on
        equality the candidate is still verified so ties resolve by id.
        """
        return -self._heap[0][0] if len(self._heap) >= self.k else _INF

    def ranked(self) -> "list[tuple[float, int]]":
        """Retained ``(distance, series_id)`` pairs, best first."""
        return sorted((-neg_d, -neg_sid) for neg_d, neg_sid in self._heap)


class Within:
    """Fixed-threshold result set: every verified pair within ``radius``.

    The range-query counterpart of :class:`TopK`, driven by the same search
    states.  It is always :attr:`full` and its :attr:`threshold` is the
    radius, so a search stops exactly where the next bound exceeds
    ``radius``.  Its capacity ``k`` is unbounded: the first advance emits
    every survivor, and one verification round resolves them all.
    """

    __slots__ = ("threshold", "_hits")

    k = _INF
    full = True

    def __init__(self, radius: float):
        self.threshold = radius
        self._hits: "list[tuple[float, int]]" = []

    def offer(self, distance: float, series_id: int) -> None:
        """Keep one verified candidate if it lies within the radius."""
        if distance <= self.threshold:
            self._hits.append((distance, series_id))

    def ranked(self) -> "list[tuple[float, int]]":
        """Retained ``(distance, series_id)`` pairs, best first."""
        return sorted(self._hits)


@dataclass
class KNNResult:
    """k-NN outcome plus the accounting the paper's figures need."""

    ids: "List[int]"
    distances: "List[float]"
    n_verified: int
    n_total: int
    nodes_visited: int = 0
    n_candidates: int = 0
    node_pushes: int = 0
    heap_pushes: int = 0

    @property
    def pruning_power(self) -> float:
        """Paper Eq. (14): fraction of raw series that had to be measured."""
        return self.n_verified / self.n_total if self.n_total else 0.0

    def accuracy_against(self, truth: "KNNResult") -> float:
        """Paper Eq. (15): |found true neighbours| / K."""
        if not truth.ids:
            return 1.0
        return len(set(self.ids) & set(truth.ids)) / len(truth.ids)


def linear_scan(data, query: np.ndarray, k: int) -> KNNResult:
    """Exact k-NN by scanning every raw series — the ground truth.

    Uses the same row-wise ``np.linalg.norm(..., axis=1)`` primitive as the
    engine's batched verification, so distances agree bit-for-bit, and a
    stable argsort so equal distances rank by ascending series id.

    ``data`` may be an in-memory ``(count, n)`` array (scanned as one
    matrix, no copy when it is already a float ndarray) or a disk-resident
    row view exposing ``gather``: that case streams through the view in
    blocks of :data:`_SCAN_BLOCK_ROWS` rows, charging the full collection
    as physical I/O without ever materialising it whole.  Row distances are
    independent, so blocking cannot change any reported value.
    """
    query = np.asarray(query, dtype=float)
    gather = getattr(data, "gather", None)
    if isinstance(data, np.ndarray) or gather is None:
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != query.shape[0]:
            raise ValueError("linear_scan expects (count, n) data and a length-n query")
        distances = np.linalg.norm(data - query[None, :], axis=1)
    else:
        count, length = data.shape
        if length != query.shape[0]:
            raise ValueError("linear_scan expects (count, n) data and a length-n query")
        blocks = []
        for start in range(0, count, _SCAN_BLOCK_ROWS):
            rows = gather(range(start, min(start + _SCAN_BLOCK_ROWS, count)))
            blocks.append(np.linalg.norm(rows - query[None, :], axis=1))
        distances = np.concatenate(blocks) if blocks else np.empty(0, dtype=float)
    order = np.argsort(distances, kind="stable")[:k]
    return KNNResult(
        ids=[int(i) for i in order],
        distances=[float(distances[i]) for i in order],
        n_verified=len(distances),
        n_total=len(distances),
    )


def record_search(result: KNNResult, mode: str) -> None:
    """Flush one query's accounting into the metrics registry.

    ``result.n_candidates`` is how many entries met the representation-bound
    stage; those never verified were pruned by the active bound, so the
    per-bound pruning counters plus ``knn.entries_refined`` reconstruct the
    paper's pruning power from a report alone.  Shared by the batched engine
    and (in worker-pool mode) by the parent re-recording worker results.
    """
    if not obs.is_enabled():
        return
    obs.count("knn.queries")
    obs.count("knn.nodes_visited", result.nodes_visited)
    obs.count("knn.nodes_pruned", max(result.node_pushes - result.nodes_visited, 0))
    obs.count("knn.entries_refined", result.n_verified)
    obs.count("knn.heap_pushes", result.heap_pushes)
    obs.count("dist.euclidean.exact", result.n_verified)
    obs.count(obs.PRUNED_METRICS[mode], max(result.n_candidates - result.n_verified, 0))
    obs.observe("knn.verified_per_query", result.n_verified)


class SeriesDatabase(MutableDatabase):
    """A collection of raw series, their representations, and an index.

    Args:
        reducer: the dimensionality reduction method for this database.
        index: an :class:`repro.IndexKind` — ``DBCH`` (the paper's
            structure), ``RTREE`` (baseline) or ``NONE``/``None`` (filter
            every representation linearly, no tree).  Plain strings are
            rejected with an error naming the member to use.
        distance_mode: adaptive-method query-bound mode, a
            :class:`repro.DistanceMode` (see :func:`repro.distance.make_suite`).
        max_entries / min_entries: node fill factors (paper uses 5 / 2).

    The database is mutable and snapshot-consistent: ``insert``/``delete``
    may interleave with serving, ``snapshot()``/``freeze()`` pin a stable
    read view (see :class:`repro.lifecycle.MutableDatabase`), and attaching
    a :class:`repro.lifecycle.WriteAheadLog` makes mutations durable.
    """

    def __init__(
        self,
        reducer: Reducer,
        index: "Optional[IndexKind]" = IndexKind.DBCH,
        distance_mode: DistanceMode = DistanceMode.PAR,
        max_entries: int = 5,
        min_entries: int = 2,
    ):
        self.reducer = reducer
        self.index_kind: "Optional[IndexKind]" = coerce_index_kind(index)
        self.suite = make_suite(reducer, distance_mode)
        self.max_entries = max_entries
        self.min_entries = min_entries
        self.data: Optional[np.ndarray] = None
        self.entries: "List[Entry]" = []
        self.tree = None
        self._weights: Optional[np.ndarray] = None
        self._rep_cache = None
        self._engine = None
        #: amortised-doubling row buffer; ``data`` is always ``_buf[:_count]``
        #: when the raw rows live in memory (disk-backed views set it None).
        self._buf: Optional[np.ndarray] = None
        self._count = 0
        self._live_ids: "set[int]" = set()
        #: lazily-built BoundCascade (suite/reducer are immutable, so it
        #: lives for the database's lifetime; its per-collection cache keys
        #: on the generation counter and self-invalidates on mutation).
        self._cascade = None
        #: ``(data_ref, ColumnBlockStore)`` packed-block cache; see columns()
        self._columns = None
        self._init_lifecycle()

    # ------------------------------------------------------------------
    def ingest(
        self,
        data: np.ndarray,
        representations: "Optional[list]" = None,
        bulk: bool = False,
        live_ids: "Optional[List[int]]" = None,
    ) -> None:
        """Reduce and index every row of ``data`` (shape ``(count, n)``).

        ``representations`` may carry precomputed transforms of the rows so
        several index structures can be built from one reduction pass.
        ``bulk=True`` packs the tree bottom-up (STR for the R-tree,
        distance-ordered packing for the DBCH-tree) instead of inserting
        incrementally.  ``live_ids`` restricts indexing to those row ids —
        the persistence layer uses it to reopen a database whose other rows
        are tombstoned.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError("ingest expects a (count, n) array of series")
        if live_ids is None:
            ids = list(range(len(data)))
        else:
            ids = [int(i) for i in live_ids]
            if any(b <= a for a, b in zip(ids, ids[1:])):
                raise ValueError("live_ids must be strictly increasing")
            if ids and (ids[0] < 0 or ids[-1] >= len(data)):
                raise ValueError("live_ids out of range for the data rows")
        if representations is not None and len(representations) != len(ids):
            raise ValueError(
                "one representation per data row is required"
                if live_ids is None
                else "one representation per live series is required"
            )
        with obs.span("db.ingest"):
            budget = getattr(self.reducer, "n_segments", None)
            if representations is None:
                representations = self._reduce_rows(
                    data if live_ids is None else data[np.array(ids, dtype=int)]
                )
            entries = [
                Entry(
                    series_id=series_id,
                    representation=representation,
                    feature=feature_vector(representation, budget),
                )
                for series_id, representation in zip(ids, representations)
            ]
            self._install(data, entries, bulk)

    def _reduce_rows(self, rows: np.ndarray) -> "List":
        """Reduce a ``(count, n)`` matrix through the batch protocol.

        Rows are bit-identical to per-row ``transform`` calls (the
        ``transform_batch`` contract); reducers outside the protocol fall
        back to the per-row loop.
        """
        from ..reduction.base import reduce_rows

        return reduce_rows(self.reducer, rows)

    def _install(self, data, entries: "List[Entry]", bulk: bool = False) -> None:
        """Adopt ``data`` + ``entries`` wholesale and (re)build the index.

        ``data`` is either an in-memory ``(count, n)`` array or an
        array-like row view over a paged store.  Shared by ``ingest``, the
        disk-backed reopen path and compaction.
        """
        self.data = data
        if isinstance(data, np.ndarray):
            self._buf = data
            self._count = int(data.shape[0])
        else:
            self._buf = None
            self._count = len(data)
        self.entries = entries
        self._live_ids = {e.series_id for e in entries}
        self._rep_cache = None
        self._columns = None
        with self._mutate_lock:
            self._pending = []
            self._generation += 1
        if not self.entries:
            self.tree = None  # nothing to index; searches fall back to a scan
        elif self.index_kind == IndexKind.RTREE:
            budget = getattr(self.reducer, "n_segments", None)
            self._weights = feature_weights(self.entries[0].representation, budget)
            if bulk:
                self.tree = bulk_load_rtree(self.entries, self.max_entries, self.min_entries)
            else:
                self.tree = RTree(self.max_entries, self.min_entries)
                for entry in self.entries:
                    self.tree.insert(entry)
        elif self.index_kind == IndexKind.DBCH:
            from ..distance.cascade import make_pairwise_accel

            accel = make_pairwise_accel(self.suite, self.reducer)
            if bulk:
                self.tree = bulk_load_dbch(
                    self.entries,
                    self.suite.pairwise,
                    self.max_entries,
                    self.min_entries,
                    accel=accel,
                )
            else:
                self.tree = DBCHTree(
                    self.suite.pairwise, self.max_entries, self.min_entries, accel=accel
                )
                for entry in self.entries:
                    self.tree.insert(entry)
        if self.tree is not None and obs.is_enabled():
            from .stats import leaf_fill

            gauge = (
                "dbch.leaf_fill" if self.index_kind == IndexKind.DBCH else "rtree.leaf_fill"
            )
            obs.gauge_set(gauge, leaf_fill(self.tree))

    # ------------------------------------------------------------------
    def knn(self, query: np.ndarray, k: int) -> KNNResult:
        """Filter-and-refine k-NN through the configured index.

        A thin wrapper over the batched engine with a batch of one, so a
        single query and a batch member take the same code path and return
        byte-identical ids and distances.
        """
        if self.data is None:
            raise RuntimeError("ingest data before searching")
        if k < 1:
            raise ValueError("k must be >= 1")
        from ..engine import QueryOptions

        query = np.asarray(query, dtype=float)
        with obs.span("knn.search"):
            batch = self.engine().knn_batch(query[None, :], QueryOptions(k=k))
        return batch.results[0]

    def knn_batch(self, queries: np.ndarray, options=None):
        """Answer many queries at once — see :meth:`repro.engine.QueryEngine.knn_batch`."""
        return self.engine().knn_batch(queries, options)

    def engine(self):
        """The database's lazily-built :class:`repro.engine.QueryEngine`."""
        if self._engine is None:
            from ..engine import QueryEngine

            self._engine = QueryEngine(self)
        return self._engine

    def cascade(self):
        """The database's :class:`repro.distance.BoundCascade` (lazily built).

        Shared across queries; per-collection norm caches inside it key on
        the generation counter, so mutation invalidates them automatically.
        """
        if self._cascade is None:
            from ..distance.cascade import BoundCascade

            self._cascade = BoundCascade(self.suite, self.reducer)
        return self._cascade

    def columns(self):
        """A packed :class:`~repro.storage.columns.ColumnBlockStore` over the
        raw rows, or ``None`` when unavailable.

        In-memory rows get a float32 filter cache (rebuilt whenever the row
        view object changes, i.e. after appends or reinstall); disk-backed
        views delegate to the store's float64 memmap block.
        """
        data = self.data
        if data is None:
            return None
        if isinstance(data, np.ndarray):
            cached = self._columns
            if cached is not None and cached[0] is data:
                return cached[1]
            from ..storage.columns import ColumnBlockStore

            block = ColumnBlockStore.from_array(data)
            self._columns = (data, block)
            return block
        cols = getattr(data, "columns", None)
        return cols() if cols is not None else None

    def save(self, directory) -> None:
        """Persist this fitted database as a directory (see :mod:`repro.io`)."""
        from ..io.database import save_series_database

        save_series_database(self, directory)

    def stacked_entries(self):
        """``(series_ids, stacked)`` for the suite's vectorised bound, or ``None``.

        Built lazily and cached until the entry set changes; ``None`` when the
        method has no stacked layout (adaptive-length representations) or the
        stored layouts disagree.
        """
        if self.suite.stack is None or self.suite.query_bound_batch is None:
            return None
        if not self.entries:
            return None
        if self._rep_cache is None:
            try:
                stacked = self.suite.stack([e.representation for e in self.entries])
                sids = np.array([e.series_id for e in self.entries], dtype=np.int64)
                self._rep_cache = (sids, stacked)
            except ValueError:
                self._rep_cache = _STACK_UNAVAILABLE
        if self._rep_cache is _STACK_UNAVAILABLE:
            return None
        return self._rep_cache

    def ground_truth(self, query: np.ndarray, k: int) -> KNNResult:
        """Exact k-NN by linear scan over the ingested raw data."""
        if self.data is None:
            raise RuntimeError("ingest data before searching")
        return self._ground_truth_from(self.data, query, k)

    def _ground_truth_from(self, data, query: np.ndarray, k: int) -> KNNResult:
        """Tombstone-aware exact scan over ``data`` (rows indexed by id).

        With no deletes the scan runs at exactly ``k`` (fast path); under
        churn the over-fetch is capped at the tombstone count, so the scan
        never requests more than ``min(k + tombstones, rows)`` neighbours.
        """
        tombstones = self._count - len(self._live_ids)
        with obs.span("knn.ground_truth"):
            if tombstones == 0:
                return linear_scan(data, query, k)
            overfetch = min(k + tombstones, self._count)
            result = linear_scan(data, query, overfetch)
        kept = [
            (i, d) for i, d in zip(result.ids, result.distances) if i in self._live_ids
        ][:k]
        return KNNResult(
            ids=[i for i, _ in kept],
            distances=[d for _, d in kept],
            n_verified=len(self._live_ids),
            n_total=len(self._live_ids),
        )

    # ------------------------------------------------------------------
    def insert(self, series: np.ndarray) -> int:
        """Add one series to the database and its index; returns its id.

        Ids are append-only: a new series always gets the next row id even
        after deletions, so existing ids stay stable (until an explicit
        :func:`repro.lifecycle.compact` re-packs them).  Appends land in an
        amortised-doubling row buffer, so a stream of N inserts costs
        O(N·n) instead of the O(N²·n) of re-stacking the matrix each call.
        With a WAL attached the record is logged (and fsynced per policy)
        before any state changes.
        """
        series = np.asarray(series, dtype=float)
        if self.data is None:
            if series.ndim != 1:
                raise ValueError("insert expects a single series (1-D array)")
            if self._wal is not None:
                self._wal.append_insert(0, series)
            self.ingest(series[None, :])
            return 0
        if not isinstance(self.data, np.ndarray):
            raise RuntimeError(
                "raw rows live behind a paged store; insert through the owning "
                "DiskBackedDatabase"
            )
        if series.ndim != 1 or series.shape[0] != self.data.shape[1]:
            raise ValueError(
                f"series length {series.shape} does not match stored {self.data.shape[1]}"
            )
        series_id = self._count
        if self._wal is not None:
            self._wal.append_insert(series_id, series)
        self._append_row(series)
        self._register(series_id, series)
        return series_id

    def insert_batch(self, data: np.ndarray) -> "List[int]":
        """Append many series in one batched reduction; returns their ids.

        Equivalent to calling :meth:`insert` per row — same ids, same WAL
        record order, and bit-identical entries (the ``transform_batch``
        contract) — but the reduction runs array-at-a-time.  WAL records for
        the whole batch are logged before any state changes; a crash
        mid-batch therefore replays cleanly (replay re-applies the logged
        prefix row by row).
        """
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("insert_batch expects a (count, n) array of series")
        if matrix.shape[0] == 0:
            return []
        if self.data is None:
            ids = list(range(matrix.shape[0]))
            if self._wal is not None:
                for series_id, row in zip(ids, matrix):
                    self._wal.append_insert(series_id, row)
            self.ingest(matrix)
            return ids
        if not isinstance(self.data, np.ndarray):
            raise RuntimeError(
                "raw rows live behind a paged store; insert through the owning "
                "DiskBackedDatabase"
            )
        if matrix.shape[1] != self.data.shape[1]:
            raise ValueError(
                f"series length {matrix.shape[1]} does not match stored {self.data.shape[1]}"
            )
        ids = list(range(self._count, self._count + matrix.shape[0]))
        if self._wal is not None:
            for series_id, row in zip(ids, matrix):
                self._wal.append_insert(series_id, row)
        for row in matrix:
            self._append_row(row)
        self._register_batch(ids, matrix)
        return ids

    def _append_row(self, series: np.ndarray) -> None:
        """Append one raw row to the capacity-doubling buffer.

        Existing snapshots keep views into the old buffer, so growing never
        moves rows out from under a pinned reader.
        """
        if self._buf is None or self._count == self._buf.shape[0]:
            capacity = max(4, 2 * self._count)
            grown = np.empty((capacity, series.shape[0]), dtype=float)
            if self._count:
                grown[: self._count] = np.asarray(self.data)
            self._buf = grown
        self._buf[self._count] = series
        self._count += 1
        self.data = self._buf[: self._count]

    def _register(self, series_id: int, series: np.ndarray) -> None:
        """Transform ``series`` and make its entry (eventually) visible."""
        representation = self.reducer.transform(series)
        budget = getattr(self.reducer, "n_segments", None)
        entry = Entry(
            series_id=series_id,
            representation=representation,
            feature=feature_vector(representation, budget),
        )
        self._count = max(self._count, series_id + 1)
        self._live_ids.add(series_id)
        obs.count("db.inserts")
        self._stage("insert", entry)

    def _register_batch(self, series_ids: "List[int]", rows: np.ndarray) -> None:
        """Batched :meth:`_register`: one reduction pass, entries staged in order."""
        representations = self._reduce_rows(np.asarray(rows, dtype=float))
        budget = getattr(self.reducer, "n_segments", None)
        for series_id, representation in zip(series_ids, representations):
            entry = Entry(
                series_id=series_id,
                representation=representation,
                feature=feature_vector(representation, budget),
            )
            self._count = max(self._count, series_id + 1)
            self._live_ids.add(series_id)
            obs.count("db.inserts")
            self._stage("insert", entry)

    def delete(self, series_id: int) -> bool:
        """Remove one series from the database and its index.

        The raw row stays behind as a tombstone (ids are stable); the entry
        leaves the candidate set and the tree, so searches never return it
        again.  :func:`repro.lifecycle.compact` reclaims the row bytes.
        """
        series_id = int(series_id)
        if series_id not in self._live_ids:
            return False
        if self._wal is not None:
            self._wal.append_delete(series_id)
        return self._delete_unlogged(series_id)

    def _delete_unlogged(self, series_id: int) -> bool:
        if series_id not in self._live_ids:
            return False
        self._live_ids.discard(series_id)
        obs.count("db.deletes")
        self._stage("delete", series_id)
        return True

    # -- lifecycle hooks ------------------------------------------------
    def _apply_op(self, op: str, payload) -> None:
        """Make one staged mutation visible in the entry list and tree."""
        if op == "insert":
            self.entries.append(payload)
            if self.tree is not None:
                self.tree.insert(payload)
        else:
            self.entries = [e for e in self.entries if e.series_id != payload]
            if self.tree is not None:
                self.tree.delete(payload)
        self._rep_cache = None
        self._generation += 1

    def _replay_insert(self, series_id: int, series: np.ndarray) -> None:
        """Recovery hook: re-apply one WAL insert without re-logging it."""
        from ..lifecycle.recovery import RecoveryError

        series = np.asarray(series, dtype=float)
        if self.data is None:
            if series_id != 0:
                raise RecoveryError(
                    f"WAL insert for id {series_id} into an empty database"
                )
            self.ingest(series[None, :])
            return
        if series_id != self._count:
            raise RecoveryError(
                f"WAL insert for id {series_id} but the next row id is {self._count}"
            )
        self._append_row(series)
        self._register(series_id, series)

    def _replay_insert_batch(self, records: "List[tuple]") -> None:
        """Recovery hook: re-apply a run of consecutive WAL inserts.

        Validates the same invariants as per-record :meth:`_replay_insert`
        (a violation is fatal to recovery either way), appends every row,
        then reduces the whole run in one batch pass.
        """
        from ..lifecycle.recovery import RecoveryError

        pending = [(int(sid), np.asarray(series, dtype=float)) for sid, series in records]
        if not pending:
            return
        if self.data is None:
            series_id, series = pending[0]
            if series_id != 0:
                raise RecoveryError(
                    f"WAL insert for id {series_id} into an empty database"
                )
            self.ingest(series[None, :])
            pending = pending[1:]
            if not pending:
                return
        expected = self._count
        for series_id, _ in pending:
            if series_id != expected:
                raise RecoveryError(
                    f"WAL insert for id {series_id} but the next row id is {expected}"
                )
            expected += 1
        for _, series in pending:
            self._append_row(series)
        self._register_batch([sid for sid, _ in pending], np.vstack([s for _, s in pending]))

    def _replay_delete(self, series_id: int) -> bool:
        """Recovery hook: re-apply one WAL delete (idempotent)."""
        return self._delete_unlogged(series_id)

    # ------------------------------------------------------------------
    def range_query(self, query: np.ndarray, radius: float) -> KNNResult:
        """All series within Euclidean ``radius`` of ``query`` (filter-and-refine).

        A thin wrapper over :meth:`repro.engine.QueryEngine.range_query`:
        the search runs on the same state machines, verification primitive
        and snapshot pin as :meth:`knn`.  Candidates whose representation
        bound exceeds ``radius`` are pruned and survivors are verified on
        raw data.  With a guaranteed lower bound (``DistanceMode.LB`` for
        adaptive methods, or any equal-length method) the result is exact.
        """
        if self.data is None:
            raise RuntimeError("ingest data before searching")
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return self.engine().range_query(np.asarray(query, dtype=float), radius)

    # ------------------------------------------------------------------
    def query_context(self, query: np.ndarray) -> QueryContext:
        """Reduce ``query`` and package it for the distance suite."""
        return QueryContext(series=query, representation=self.reducer.transform(query))

    def node_distance(self, ctx: QueryContext, node) -> float:
        """Index-structure distance from the query to a tree node."""
        if self.index_kind == IndexKind.RTREE:
            q_feature = feature_vector(
                ctx.representation, getattr(self.reducer, "n_segments", None)
            )
            return self.tree.node_distance(q_feature, self._weights, node)
        return self.tree.node_distance(ctx.representation, node)

    @property
    def node_bounds_exact(self) -> bool:
        """Whether :meth:`node_distance` may *prune* subtrees, not just order them.

        The R-tree's weighted feature MINDIST assumes every series shares the
        query's segment layout; adaptive methods break that, so their node
        distances are navigation hints only — pruning on them falsely
        dismisses true neighbours (entry-level bounds stay exact and carry
        all pruning instead).  See :mod:`repro.index.mbr`.
        """
        return not (
            self.index_kind == IndexKind.RTREE and self.suite.method in ADAPTIVE_METHODS
        )
