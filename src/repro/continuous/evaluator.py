"""The incremental evaluator: mutations in, notification deltas out.

:class:`ContinuousEvaluator` wraps any mutable engine target — a
:class:`repro.index.SeriesDatabase`, a
:class:`repro.storage.DiskBackedDatabase` or a
:class:`repro.serving.ShardedEngine` — and routes ``insert``/``delete``
through it.  After each mutation lands (WAL first, as always), every
standing subscription re-evaluates *incrementally*:

* **k-NN watch** — the inserted row's distance to the watch query is one
  call of the engine's own verification primitive
  (``np.linalg.norm(row - query)`` row-wise), merged into the kept top-k
  frontier under the stable ``(distance, id)`` tie-break.  Deletes only
  invalidate the frontier when the victim is *in* it; then the watch falls
  back to a full re-run through the target's ``knn_batch`` — the bound
  cascade, early-abandoning verification and (for a sharded target) the
  scatter-gather merge are exactly the one-shot machinery.  The
  ``continuous.delta_evals`` / ``continuous.full_reruns`` counters expose
  the delta-vs-full ratio.
* **range watch** — membership is a single distance comparison per insert;
  a delete just drops the id from the result set (no re-run can change the
  other members).
* **subsequence watch** — each inserted series is scanned for pattern
  occurrences (windows within the radius, de-duplicated to the locally
  best offset); deletes drop that series' matches.
* **anomaly watch** — the inserted values feed the subscription's
  :class:`~repro.continuous.OnlineDiscordScorer` (bulk ``extend``); each
  raised alert becomes its own notification.

Because every incremental step uses the same distance primitive and the
same tie-break as the batch engine, the maintained frontier is
**bit-identical** to re-running the query from scratch on the final
snapshot — the equivalence property ``tests/continuous`` checks across
reducer × index × shard layouts (adaptive reducers need
:attr:`repro.DistanceMode.LB`, the same exactness caveat as sharding).

Durability: subscriptions live in a :class:`SubscriptionRegistry` whose
log replays beside the data WAL.  Delivery acks are written *after* the
sink callback returns, so after a SIGKILL :meth:`resync` re-runs each
query on the recovered target and re-emits the delta against the last
acked frontier — at-least-once delivery, de-duplicated by ``seq``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..apps.windows import sliding_windows, windows_overlap
from ..engine.options import QueryOptions
from .anomaly import OnlineDiscordScorer
from .queries import (
    AnomalyWatch,
    KnnWatch,
    Notification,
    RangeWatch,
    StandingQuery,
    SubsequenceWatch,
)
from .registry import SubscriptionRegistry

__all__ = ["ContinuousEvaluator"]

Sink = Callable[[Notification], None]

Pair = Tuple[float, int]  # (distance, global id) — the stable sort key


def _inner_db(target):
    return getattr(target, "_inner", target)


def _is_sharded(target) -> bool:
    return hasattr(target, "shards")


def _total_rows(target) -> int:
    """Rows ever inserted (tombstones included) — the next global id."""
    if _is_sharded(target):
        return int(target.count)
    inner = _inner_db(target)
    return 0 if inner.data is None else int(inner._count)


def _live_gids(target) -> "List[int]":
    """Every live global id, ascending."""
    if _is_sharded(target):
        n = target.n_shards
        gids: "List[int]" = []
        for s, shard in enumerate(target.shards):
            gids.extend(local * n + s for local in _inner_db(shard)._live_ids)
        return sorted(gids)
    return sorted(_inner_db(target)._live_ids)


def _row(target, gid: int) -> np.ndarray:
    """One raw row by global id (tombstoned rows are still addressable)."""
    if _is_sharded(target):
        n = target.n_shards
        inner = _inner_db(target.shards[gid % n])
        local = gid // n
    else:
        inner = _inner_db(target)
        local = gid
    data = inner.data
    gather = getattr(data, "gather", None)
    if gather is not None and not isinstance(data, np.ndarray):
        return np.asarray(gather([local]), dtype=float)[0]
    return np.asarray(data[local], dtype=float)


def _distance(row: np.ndarray, query: np.ndarray) -> float:
    """The engine's verification primitive, applied to one row.

    Must stay the row-wise ``np.linalg.norm(..., axis=1)`` form —
    :func:`repro.index.linear_scan` and the engine's verification rounds
    compute distances that way, and bit-identical frontiers require the
    identical floating-point reduction.
    """
    return float(np.linalg.norm(row[None, :] - query[None, :], axis=1)[0])


class _Runtime:
    """One subscription's in-memory evaluation state."""

    __slots__ = ("pairs", "matches", "scorer")

    def __init__(self):
        self.pairs: "List[Pair]" = []  # knn / range frontier
        self.matches: "Dict[int, Tuple[Tuple[int, float], ...]]" = {}  # subsequence
        self.scorer: "Optional[OnlineDiscordScorer]" = None  # anomaly


class ContinuousEvaluator:
    """Standing-query evaluation over one mutable engine target.

    All mutation entry points (``insert``/``delete``) are serialised by an
    internal lock, so notification seqs and frontiers advance atomically
    per mutation.  Reads (``knn_batch``/``range_query``) pass straight
    through to the target.
    """

    def __init__(self, target, registry: "Optional[SubscriptionRegistry]" = None):
        self._target = target
        self.registry = registry if registry is not None else SubscriptionRegistry()
        self._lock = threading.RLock()
        self._sinks: "Dict[str, Sink]" = {}
        self._runtime: "Dict[str, _Runtime]" = {}
        self._seq: "Dict[str, int]" = {}
        self._restore()

    # -- delegation ------------------------------------------------------
    @property
    def target(self):
        """The wrapped engine target."""
        return self._target

    @property
    def generation(self):
        """The target's current generation (tuple when sharded)."""
        return getattr(self._target, "generation", None)

    def knn_batch(self, queries, options=None):
        """One-shot batch k-NN, straight through the target."""
        return self._target.knn_batch(queries, options)

    def range_query(self, query, radius):
        """One-shot radius query, straight through the target."""
        return self._target.range_query(query, radius)

    # -- subscription lifecycle -----------------------------------------
    def subscribe(self, query: StandingQuery, sink: "Optional[Sink]" = None) -> str:
        """Register a standing query; emits the initial ``full`` snapshot.

        k-NN and range watches open with their current result over the
        live collection; subsequence and anomaly watches are stream-shaped
        and open empty, seeing only rows inserted from now on.
        """
        with self._lock:
            from_row = _total_rows(self._target)
            sid = self.registry.subscribe(query, from_row=from_row)
            if sink is not None:
                self._sinks[sid] = sink
            runtime = _Runtime()
            if isinstance(query, (KnnWatch, RangeWatch)):
                runtime.pairs = self._scratch_pairs(query)
            elif isinstance(query, AnomalyWatch):
                runtime.scorer = self._make_scorer(query)
            self._runtime[sid] = runtime
            self._seq[sid] = 0
            note = self._snapshot_notification(sid, query, runtime, full=True)
            self._deliver(sid, note, time.perf_counter())
            return sid

    def unsubscribe(self, sid: str) -> bool:
        """Drop a subscription and its runtime state."""
        with self._lock:
            self._sinks.pop(sid, None)
            self._runtime.pop(sid, None)
            self._seq.pop(sid, None)
            return self.registry.unsubscribe(sid)

    def attach_sink(self, sid: str, sink: Sink) -> None:
        """Route a subscription's notifications to ``sink`` (one per sub)."""
        with self._lock:
            if self.registry.get(sid) is None:
                raise KeyError(f"unknown subscription {sid!r}")
            self._sinks[sid] = sink

    def detach_sink(self, sid: str) -> None:
        """Stop delivering (the subscription itself stays registered)."""
        with self._lock:
            self._sinks.pop(sid, None)

    def subscriptions(self) -> "Dict[str, StandingQuery]":
        """Active subscription ids and their standing queries."""
        with self._lock:
            return {sid: s.query for sid, s in self.registry.subscriptions().items()}

    # -- mutations -------------------------------------------------------
    def insert(self, series) -> int:
        """Insert one series, then re-evaluate every affected subscription."""
        started = time.perf_counter()
        series = np.asarray(series, dtype=float)
        with self._lock:
            gid = self._target.insert(series)
            with obs.span("continuous.evaluate"):
                for sid, sub in self.registry.subscriptions().items():
                    runtime = self._runtime.get(sid)
                    if runtime is None:
                        continue
                    for note in self._on_insert(sid, sub.query, runtime, gid, series):
                        self._deliver(sid, note, started)
            return gid

    def insert_batch(self, data) -> "List[int]":
        """Insert many series, re-evaluating subscriptions per row in order.

        The target's batched insert runs one reduction pass over the whole
        matrix; subscription evaluation stays per-row (each watch folds in
        one ``(gid, series)`` at a time, independent of the other rows), so
        notifications match a loop of :meth:`insert` exactly.
        """
        started = time.perf_counter()
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("insert_batch expects a (count, n) array of series")
        with self._lock:
            batch = getattr(self._target, "insert_batch", None)
            if batch is not None and matrix.shape[0] > 1:
                gids = list(batch(matrix))
            else:
                gids = [self._target.insert(row) for row in matrix]
            with obs.span("continuous.evaluate"):
                for gid, row in zip(gids, matrix):
                    for sid, sub in self.registry.subscriptions().items():
                        runtime = self._runtime.get(sid)
                        if runtime is None:
                            continue
                        for note in self._on_insert(sid, sub.query, runtime, gid, row):
                            self._deliver(sid, note, started)
            return gids

    def delete(self, gid: int) -> bool:
        """Delete one series, then re-evaluate every affected subscription."""
        started = time.perf_counter()
        with self._lock:
            if not self._target.delete(gid):
                return False
            with obs.span("continuous.evaluate"):
                for sid, sub in self.registry.subscriptions().items():
                    runtime = self._runtime.get(sid)
                    if runtime is None:
                        continue
                    note = self._on_delete(sid, sub.query, runtime, int(gid))
                    if note is not None:
                        self._deliver(sid, note, started)
            return True

    # -- recovery --------------------------------------------------------
    def resync(self, sid: "Optional[str]" = None) -> "List[Notification]":
        """Re-run subscriptions from scratch and re-emit unacked deltas.

        Call after reopening a crashed target: every subscription's query
        re-runs on the recovered snapshot and, where the result differs
        from the last *acked* frontier, a ``full`` notification (or the
        missing alerts, for anomaly watches) is re-emitted with the seq it
        would have carried — identical content and seq as the possibly-
        lost original, so consumers de-duplicate by seq.  Also the
        catch-up path after server-side backpressure drops.
        """
        with self._lock:
            targets = [sid] if sid is not None else list(self.registry.subscriptions())
            emitted: "List[Notification]" = []
            for one in targets:
                emitted.extend(self._resync_one(one))
            return emitted

    def refresh(self, sid: str) -> "Optional[Notification]":
        """Unconditionally re-emit one subscription's full current snapshot.

        The catch-up path after server-side backpressure drops: the acked
        frontier is already current there (acks witness the sink call, not
        the consumer), so :meth:`resync` would emit nothing — this instead
        always pushes a replacement ``full`` snapshot for the snapshot-
        shaped kinds.  Anomaly watches return ``None``: their alerts are
        point events with no snapshot to replace them with.
        """
        with self._lock:
            sub = self.registry.get(sid)
            if sub is None or isinstance(sub.query, AnomalyWatch):
                return None
            started = time.perf_counter()
            obs.count("continuous.full_reruns")
            runtime = self._runtime.get(sid)
            if runtime is None:
                runtime = _Runtime()
                self._runtime[sid] = runtime
            query = sub.query
            if isinstance(query, (KnnWatch, RangeWatch)):
                previous = [g for _, g in runtime.pairs]
                runtime.pairs = self._scratch_pairs(query)
            else:
                previous = sorted(runtime.matches)
                runtime.matches = {}
                for gid in _live_gids(self._target):
                    if gid < sub.from_row:
                        continue
                    found = self._scan_pattern(query, _row(self._target, gid))
                    if found:
                        runtime.matches[gid] = found
            note = self._snapshot_notification(
                sid, query, runtime, full=True, against=previous
            )
            self._deliver(sid, note, started)
            return note

    def _resync_one(self, sid: str) -> "List[Notification]":
        sub = self.registry.get(sid)
        if sub is None:
            return []
        started = time.perf_counter()
        runtime = self._runtime.get(sid)
        if runtime is None:
            runtime = _Runtime()
            self._runtime[sid] = runtime
        self._seq[sid] = int(sub.seq)
        query = sub.query
        out: "List[Notification]" = []
        if isinstance(query, (KnnWatch, RangeWatch)):
            runtime.pairs = self._scratch_pairs(query)
            acked = list(
                zip(sub.state.get("distances", ()), map(int, sub.state.get("ids", ())))
            )
            if [(float(d), int(g)) for d, g in acked] != runtime.pairs or sub.seq == 0:
                note = self._snapshot_notification(
                    sid, query, runtime, full=True, against=[g for _, g in acked]
                )
                self._deliver(sid, note, started)
                out.append(note)
        elif isinstance(query, SubsequenceWatch):
            obs.count("continuous.full_reruns")
            runtime.matches = {}
            for gid in _live_gids(self._target):
                if gid < sub.from_row:
                    continue
                found = self._scan_pattern(query, _row(self._target, gid))
                if found:
                    runtime.matches[gid] = found
            acked = {
                int(g): tuple((int(s), float(d)) for s, d in offsets)
                for g, offsets in (sub.state.get("matches") or {}).items()
            }
            if acked != runtime.matches or sub.seq == 0:
                note = self._snapshot_notification(
                    sid, query, runtime, full=True, against=sorted(acked)
                )
                self._deliver(sid, note, started)
                out.append(note)
        elif isinstance(query, AnomalyWatch):
            obs.count("continuous.full_reruns")
            runtime.scorer = self._make_scorer(query)
            alerts = []
            for gid in range(sub.from_row, _total_rows(self._target)):
                alerts.extend(runtime.scorer.extend(_row(self._target, gid)))
            # scoring is deterministic, so re-fed alerts reproduce the
            # originals; everything past the acked count was never confirmed
            for alert in alerts[int(sub.state.get("alerts", 0)) :]:
                note = self._alert_notification(sid, alert)
                self._deliver(sid, note, started)
                out.append(note)
        return out

    # -- per-kind incremental evaluation ---------------------------------
    def _on_insert(
        self, sid: str, query: StandingQuery, runtime: _Runtime, gid: int, series
    ) -> "List[Notification]":
        if isinstance(query, KnnWatch):
            obs.count("continuous.delta_evals")
            d = _distance(series, query.query)
            if len(runtime.pairs) >= query.k and (d, gid) >= runtime.pairs[-1]:
                return []  # the frontier is full and the new row is farther
            merged = sorted(runtime.pairs + [(d, gid)])[: query.k]
            removed = [g for _, g in runtime.pairs if (g not in {m for _, m in merged})]
            runtime.pairs = merged
            return [
                self._snapshot_notification(
                    sid, query, runtime, added=(gid,), removed=tuple(removed)
                )
            ]
        if isinstance(query, RangeWatch):
            obs.count("continuous.delta_evals")
            d = _distance(series, query.query)
            if d > query.radius:
                return []
            runtime.pairs = sorted(runtime.pairs + [(d, gid)])
            return [self._snapshot_notification(sid, query, runtime, added=(gid,))]
        if isinstance(query, SubsequenceWatch):
            obs.count("continuous.delta_evals")
            found = self._scan_pattern(query, series)
            if not found:
                return []
            runtime.matches[gid] = found
            return [self._snapshot_notification(sid, query, runtime, added=(gid,))]
        if isinstance(query, AnomalyWatch):
            obs.count("continuous.delta_evals")
            alerts = runtime.scorer.extend(series)
            return [self._alert_notification(sid, alert) for alert in alerts]
        return []

    def _on_delete(
        self, sid: str, query: StandingQuery, runtime: _Runtime, gid: int
    ) -> "Optional[Notification]":
        if isinstance(query, KnnWatch):
            if all(g != gid for _, g in runtime.pairs):
                obs.count("continuous.delta_evals")
                return None  # outside the frontier: the top-k cannot change
            # the frontier lost a member — only a full re-run can refill it
            obs.count("continuous.full_reruns")
            previous = [g for _, g in runtime.pairs]
            runtime.pairs = self._scratch_pairs(query)
            return self._snapshot_notification(
                sid, query, runtime, full=True, against=previous
            )
        if isinstance(query, RangeWatch):
            obs.count("continuous.delta_evals")
            kept = [(d, g) for d, g in runtime.pairs if g != gid]
            if len(kept) == len(runtime.pairs):
                return None
            runtime.pairs = kept
            return self._snapshot_notification(sid, query, runtime, removed=(gid,))
        if isinstance(query, SubsequenceWatch):
            obs.count("continuous.delta_evals")
            if gid not in runtime.matches:
                return None
            del runtime.matches[gid]
            return self._snapshot_notification(sid, query, runtime, removed=(gid,))
        return None  # anomaly watches consume the stream; deletes don't rewind it

    # -- scratch evaluation ----------------------------------------------
    def _scratch_pairs(self, query) -> "List[Pair]":
        """The watch's exact result via the one-shot engine machinery."""
        if _total_rows(self._target) == 0 or not _live_gids(self._target):
            return []
        if isinstance(query, KnnWatch):
            batch = self._target.knn_batch(
                np.asarray([query.query], dtype=float), QueryOptions(k=query.k)
            )
            result = batch.results[0]
        else:
            result = self._target.range_query(query.query, query.radius)
        return [(float(d), int(g)) for d, g in zip(result.distances, result.ids)]

    def _scan_pattern(
        self, query: SubsequenceWatch, series: np.ndarray
    ) -> "Tuple[Tuple[int, float], ...]":
        """Pattern occurrences in one series: in-radius, locally best."""
        series = np.asarray(series, dtype=float)
        length = query.pattern.shape[0]
        if series.shape[0] < length:
            return ()
        windows, starts = sliding_windows(series, length, query.stride)
        distances = np.linalg.norm(windows - query.pattern[None, :], axis=1)
        hits = [
            (int(starts[i]), float(d))
            for i, d in enumerate(distances)
            if d <= query.radius
        ]
        kept: "List[Tuple[int, float]]" = []
        for start, d in sorted(hits, key=lambda h: (h[1], h[0])):
            if not any(windows_overlap(start, seen, length) for seen, _ in kept):
                kept.append((start, d))
        return tuple(sorted(kept))

    def _make_scorer(self, query: AnomalyWatch) -> OnlineDiscordScorer:
        return OnlineDiscordScorer(
            window=query.window,
            threshold=query.threshold,
            stride=query.stride,
            max_segments=query.max_segments,
            history=query.history,
        )

    # -- notification assembly / delivery --------------------------------
    def _next_seq(self, sid: str) -> int:
        self._seq[sid] = self._seq.get(sid, 0) + 1
        return self._seq[sid]

    def _snapshot_notification(
        self,
        sid: str,
        query: StandingQuery,
        runtime: _Runtime,
        full: bool = False,
        added: "Tuple[int, ...]" = (),
        removed: "Tuple[int, ...]" = (),
        against: "Optional[List[int]]" = None,
    ) -> Notification:
        """A notification carrying the subscription's current frontier.

        ``against`` (previous member ids) turns a full snapshot into a
        delta too: added/removed are computed relative to it.
        """
        if isinstance(query, SubsequenceWatch):
            current = sorted(runtime.matches)
            matches = tuple(
                (gid, start, d)
                for gid in current
                for start, d in runtime.matches[gid]
            )
            ids: "Tuple[int, ...]" = ()
            distances: "Tuple[float, ...]" = ()
        else:
            current = [g for _, g in runtime.pairs]
            matches = ()
            ids = tuple(current)
            distances = tuple(d for d, _ in runtime.pairs)
        if against is not None:
            added = tuple(g for g in current if g not in set(against))
            removed = tuple(g for g in against if g not in set(current))
        return Notification(
            subscription_id=sid,
            seq=self._next_seq(sid),
            kind=query.kind,
            generation=self.generation,
            ids=ids,
            distances=distances,
            added=added,
            removed=removed,
            full=full,
            matches=matches,
        )

    def _alert_notification(self, sid: str, alert) -> Notification:
        obs.count("continuous.alerts")
        return Notification(
            subscription_id=sid,
            seq=self._next_seq(sid),
            kind="anomaly",
            generation=self.generation,
            alert=alert.to_payload(),
        )

    def _state_of(self, sid: str, seq: int) -> dict:
        """The ack-record state snapshot as of notification ``seq``."""
        runtime = self._runtime[sid]
        sub = self.registry.get(sid)
        if isinstance(sub.query, (KnnWatch, RangeWatch)):
            return {
                "ids": [g for _, g in runtime.pairs],
                "distances": [d for d, _ in runtime.pairs],
            }
        if isinstance(sub.query, SubsequenceWatch):
            return {
                "matches": {
                    str(gid): [[s, d] for s, d in offsets]
                    for gid, offsets in runtime.matches.items()
                }
            }
        # NOT scorer.n_alerts: extend() scores a whole row before its alert
        # burst delivers one by one, so the scorer's count runs ahead of the
        # acks mid-burst and a crash there would skip the undelivered tail
        # on resync.  Every anomaly notification past the initial snapshot
        # is one alert, so the delivered count as of ``seq`` is seq - 1.
        return {
            "points": runtime.scorer.n_points,
            "alerts": max(0, int(seq) - 1),
        }

    def _deliver(self, sid: str, note: Notification, started: float) -> None:
        """Sink first, then ack — the order the delivery guarantee needs."""
        sink = self._sinks.get(sid)
        if sink is not None:
            sink(note)
        obs.count("continuous.notifications")
        obs.observe("continuous.notify_ms", (time.perf_counter() - started) * 1000.0)
        self.registry.ack(sid, note.seq, note.generation, self._state_of(sid, note.seq))

    # -- restore ----------------------------------------------------------
    def _restore(self) -> None:
        """Seed runtime state from the registry's acked frontiers.

        Rebuilds what the log proves was delivered; :meth:`resync` then
        reconciles against the recovered target and re-emits anything the
        crash may have swallowed.
        """
        for sid, sub in self.registry.subscriptions().items():
            runtime = _Runtime()
            if isinstance(sub.query, (KnnWatch, RangeWatch)):
                runtime.pairs = [
                    (float(d), int(g))
                    for d, g in zip(
                        sub.state.get("distances", ()), sub.state.get("ids", ())
                    )
                ]
            elif isinstance(sub.query, SubsequenceWatch):
                runtime.matches = {
                    int(g): tuple((int(s), float(d)) for s, d in offsets)
                    for g, offsets in (sub.state.get("matches") or {}).items()
                }
            elif isinstance(sub.query, AnomalyWatch):
                runtime.scorer = self._make_scorer(sub.query)
            self._runtime[sid] = runtime
            self._seq[sid] = int(sub.seq)

    # -- lifecycle ---------------------------------------------------------
    def sync(self) -> None:
        """Fsync the registry log (the target's WAL has its own policy)."""
        self.registry.sync()

    def close(self) -> None:
        """Close the registry log; the target stays open (caller-owned)."""
        self.registry.close()
