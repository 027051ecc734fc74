"""Workload ``ingest_watch``: durable inserts with standing k-NN queries.

~2,000 series of length 128 in the disk-backed database kind — PAA to 12
coefficients, a DBCH-tree, raw rows on 4 KB pages behind the default
8-page cache — opened with the default durability options (WAL on, fsync
every 64 records) and served by ``repro serve`` in its own process.  One
subscriber connection holds 32 standing ``KnnWatch`` (k=8) queries.  A
closed-loop writer connection inserts one series at a time (half of them
noisy copies of watched queries) and issues one ``knn`` read after every
8th insert.  Writes meet reads on the same layers: WAL appends, DBCH
maintenance, page writes, continuous delta evaluation and push frames.

The run is cut into rounds of a fixed number of inserts, each against a
fresh server on a fresh copy of the same database: an insert costs more as
the database grows, so a loop bounded by time alone would measure a faster
program at larger sizes than a slower one.

Notifications are matched to inserts by generation: the database's
generation rises by one per insert, so the push frame carrying generation
``G0 + m`` answers the ``m``-th timed insert.
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

import inputs
import oracle
from common import (
    COEFFICIENTS,
    K,
    Context,
    Tally,
    TracedWindow,
    counter_delta,
    end_to_end,
    host_steal,
    per_layer,
    perf,
    scaled_setup,
    server_counters,
)
from hostspeed import MEMORY, HostClock
from serverproc import ServerProcess
from stats import median, percentile

from tracer import Tracer
from wire import FrameConnection

#: the tail percentile: a 25 s run makes 4-5 rounds of 50 reads, ~20 of them beyond p90
TAIL = 90.0
#: the writer issues one ``knn`` read after every this many inserts
READ_EVERY = 8
#: inserts (and one read) that warm the server up before the timed loop
WARMUP_INSERTS = 8
#: the disk-backed store's page size (bytes) and its page cache (pages)
PAGE_SIZE = 4096
CACHE_PAGES = 8


class Subscriber:
    """One connection holding every standing query; a thread reads its frames."""

    def __init__(self, host: str, port: int):
        self.conn = FrameConnection(host, port)
        self.notes: "List[tuple]" = []  # (receive time, notification payload)
        self._replies: "Dict[int, dict]" = {}
        self._expected = 0
        self._replied = threading.Event()
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        while True:
            frame = self.conn.recv()
            now = time.perf_counter()
            if frame is None:
                return
            if frame.get("op") == "notify":
                self.notes.append((now, frame["notification"]))
            else:
                self._replies[frame.get("id")] = frame
                if len(self._replies) >= self._expected:
                    self._replied.set()

    def subscribe(self, watches, timeout: float = 60.0) -> "List[str]":
        """Register every standing query; returns the subscription ids."""
        self._expected = len(watches)
        for i, watch in enumerate(watches):
            self.conn.send({"id": i, "op": "subscribe", "query": watch.to_payload()})
        if not self._replied.wait(timeout):
            raise RuntimeError("subscriptions were not acknowledged")
        sids = []
        for i in range(len(watches)):
            reply = self._replies[i]
            if not reply.get("ok"):
                raise RuntimeError(f"subscribe failed: {reply}")
            sids.append(str(reply["subscription_id"]))
        return sids

    def settle(self, quiet: float = 0.3, limit: float = 10.0) -> None:
        """Wait until no push frame has arrived for ``quiet`` seconds."""
        stop = time.perf_counter() + limit
        seen = -1
        while time.perf_counter() < stop and seen != len(self.notes):
            seen = len(self.notes)
            time.sleep(quiet)

    def close(self) -> None:
        self.conn.close()
        self._thread.join(5.0)


@dataclass
class IngestWatch:
    series: int = 2000
    length: int = 128
    watches: int = 32
    #: inserts per round (one read per ``READ_EVERY``), and the fewest rounds
    round_inserts: int = 400
    min_rounds: int = 3

    # -- set-up --------------------------------------------------------------
    def prepare(self, ctx: Context, data) -> pathlib.Path:
        """Write the durable database directory the server will open (untimed).

        The directory holds the saved disk-backed database and an empty
        write-ahead log; ``repro serve`` keeps logging to a log it finds,
        under the default :class:`repro.DurabilityOptions`.
        """
        from repro import DurabilityOptions, IndexKind
        from repro.lifecycle import WAL_FILENAME, WriteAheadLog
        from repro.reduction import PAA
        from repro.storage import DiskBackedDatabase

        home = ctx.work / "template"
        home.mkdir(parents=True)
        db = DiskBackedDatabase(
            PAA(n_coefficients=COEFFICIENTS),
            home / "series.bin",
            index=IndexKind.DBCH,
            page_size=PAGE_SIZE,
            cache_pages=CACHE_PAGES,
        )
        db.ingest(data)
        db.save(home)
        WriteAheadLog.open(home / WAL_FILENAME, DurabilityOptions()).close()
        return home

    def build(self, ctx: Context, template, data, watched, stream, number: int, trace_out=None):
        """Open a fresh copy of the database in a server, subscribe, warm up.

        Returns ``(session, seconds)``; the warm-up inserts the first
        :data:`WARMUP_INSERTS` rows of ``stream`` and reads once.
        """
        from repro.client import KnnRequest, connect
        from repro.continuous import KnnWatch

        home = ctx.work / f"ingest-{number}"
        shutil.copytree(template, home / "db")
        start = perf()
        server = ServerProcess(ctx.src, home / "db", trace_out)
        session = _Session(server)
        try:
            server.start()
            session.subscriber = Subscriber(server.host, server.port)
            session.sids = session.subscriber.subscribe(
                [KnnWatch(q, k=K) for q in watched]
            )
            session.writer = connect(f"tcp://{server.host}:{server.port}")
            for i in range(WARMUP_INSERTS):
                session.writer.insert(stream.row(i))
            warm = inputs.warmup_queries(ctx.seed, data, 1)
            session.generation0 = session.writer.knn(KnnRequest(warm[0], k=K))[0].generation
        except BaseException:
            session.close()
            raise
        return session, perf() - start

    # -- traffic -------------------------------------------------------------
    def loop(self, session, stream, reads, first: int, count: int, clock: HostClock):
        """Closed loop of ``count`` inserts, with a read after every ``READ_EVERY``-th.

        The reference task is timed on ``clock`` first and after every read,
        when the pushes of the inserts before it have long been delivered.
        """
        from repro.client import KnnRequest, ServerError

        inserts: "List[tuple]" = []  # (stream row, t_send, t_ack, gid or error text)
        done_reads: "List[tuple]" = []  # (read row, inserts before, t0, t1, result)
        clock.sample()
        for row in range(first, first + count):
            t_send = perf()
            try:
                gid = session.writer.insert(stream.row(row))
            except ServerError as exc:
                gid = str(exc)
            inserts.append((row, t_send, perf(), gid))
            if len(inserts) % READ_EVERY == 0:
                index = len(done_reads)
                query = reads.rows(index, index + 1)[0]
                t0 = perf()
                try:
                    result = session.writer.knn(KnnRequest(query, k=K))[0]
                except ServerError as exc:
                    result = str(exc)
                done_reads.append((index, row + 1, t0, perf(), result))
                clock.sample()
        return inserts, done_reads

    def check(self, data, stream, reads, session, inserts, done_reads, tally: Tally) -> None:
        """Inserts got the expected ids, reads and final frontiers are exact."""
        n0 = len(data)
        for row, _t0, _t1, gid in inserts:
            tally.attempt(gid == n0 + row, f"insert of row {row} returned {gid!r}")
        rows = stream.rows(max([r[0] + 1 for r in inserts], default=WARMUP_INSERTS))
        full = np.vstack([data, rows])
        g0 = session.generation0
        for index, inserted, _t0, _t1, result in done_reads:
            if isinstance(result, str):
                tally.attempt(False, f"read failed: {result}")
                continue
            if result.generation != g0 + inserted - WARMUP_INSERTS:
                tally.attempt(False, f"read saw generation {result.generation}")
                continue
            query = reads.rows(index, index + 1)[0]
            visible = full[: n0 + inserted]
            tally.judge(oracle.true_distances(visible, query), result.ids, result.distances)
        # each subscription's last notification is its final frontier
        session.subscriber.settle()
        last: "Dict[str, dict]" = {}
        for _t, note in session.subscriber.notes:
            sid = note["subscription_id"]
            if sid not in last or note["seq"] > last[sid]["seq"]:
                last[sid] = note
        for sid, query in zip(session.sids, session.watched):
            note = last.get(sid)
            if note is None:
                tally.attempt(False, f"no notification for {sid}")
                continue
            tally.judge(oracle.true_distances(full, query), note["ids"], note["distances"])

    def notifications(self, session, inserts, tally: Tally) -> "List[tuple]":
        """``(receive time, insert-to-push ms)`` of every delta a timed insert caused."""
        base = session.generation0
        by_generation = {base + m + 1: rec for m, rec in enumerate(inserts)}
        latencies = []
        for received, note in session.subscriber.notes:
            record = by_generation.get(note["generation"])
            if record is None or note["full"]:
                continue
            if record[3] not in note["added"]:
                tally.fail(f"notification at generation {note['generation']} lacks id {record[3]}")
                continue
            latencies.append((received, (received - record[1]) * 1000.0))
        if not latencies:
            tally.fail("no insert produced a notification")
        return latencies

    def measure(self, session, stream, reads, data, tally: Tally, stats=False):
        """Run one round's timed loop, check it and close the session.

        Returns the round's :class:`_Timings` and, with ``stats``, the
        server's ``stats`` reply taken right after the loop.
        """
        clock = HostClock(MEMORY)
        try:
            inserts, done_reads = self.loop(
                session, stream, reads, WARMUP_INSERTS, self.round_inserts, clock
            )
            after = session.writer.stats() if stats else None
            session.subscriber.settle()
            notes = self.notifications(session, inserts, tally)
            self.check(data, stream, reads, session, inserts, done_reads, tally)
        finally:
            session.close()
        return _Timings(inserts, done_reads, notes, clock, session.server.rss_mb), after

    def session(self, ctx, template, data, watched, stream, number: int, trace_out=None):
        """Set up a fresh server for one round; returns ``(session, scaled seconds)``."""
        session, seconds = scaled_setup(
            lambda: self.build(ctx, template, data, watched, stream, number, trace_out), MEMORY
        )
        session.watched = watched
        return session, seconds

    def rounds(self, ctx, template, data, watched, stream, reads, tally, seconds, least):
        """Rounds on fresh servers until their loops took ``seconds`` (at least ``least``).

        Every round replays the same inserts and reads against a fresh copy
        of the same database, so each measures the same work at the same
        database sizes however fast the program is.  Returns every set-up
        time and every round's :class:`_Timings`.
        """
        setups: "List[float]" = []
        timings: "List[_Timings]" = []
        while len(timings) < least or sum(t.end - t.start for t in timings) < seconds:
            session, setup = self.session(ctx, template, data, watched, stream, len(timings))
            setups.append(setup)
            timings.append(self.measure(session, stream, reads, data, tally)[0])
        return setups, timings

    def run(self, ctx: Context):
        data = inputs.collection(ctx.seed, self.series, self.length)
        watched = inputs.watch_queries(ctx.seed, data, self.watches)
        stream = inputs.InsertStream(ctx.seed, self.length, watched)
        reads = inputs.read_queries(ctx.seed, data)
        tally = Tally(exact=True)
        if ctx.trace:
            return tally, self.traced(ctx, data, watched, stream, reads, tally)
        template = self.prepare(ctx, data)
        setups, timings = self.rounds(
            ctx, template, data, watched, stream, reads, tally, ctx.seconds, self.min_rounds
        )
        for timed in timings:
            print(f"ingest_watch: {timed.describe()}", file=sys.stderr)
        read_ms = [ms for timed in timings for _t, ms in timed.read_ms]
        return tally, end_to_end(
            setups,
            tally,
            median([timed.rss_mb for timed in timings]),
            median([timed.insert_rate() for timed in timings]),
            median(read_ms),
            percentile(read_ms, TAIL),
        )

    def traced(self, ctx: Context, data, watched, stream, reads, tally: Tally):
        """Plain rounds for half the time, then one round against a traced server."""
        template = self.prepare(ctx, data)
        _, plain = self.rounds(
            ctx, template, data, watched, stream, reads, tally, ctx.seconds / 2, 1
        )
        spans_path = ctx.work / "spans.json"
        session, _ = self.session(
            ctx, template, data, watched, stream, len(plain), spans_path
        )
        before = session.writer.stats()
        steal = host_steal()
        traced, after = self.measure(session, stream, reads, data, tally, stats=True)
        ok_reads = [r[4] for r in traced.reads if not isinstance(r[4], str)]
        plain_rate = median([timed.insert_rate() for timed in plain])
        window = TracedWindow(
            spans=Tracer.load(spans_path),
            start=traced.start,
            end=traced.end,
            counters=counter_delta(server_counters(before), server_counters(after)),
            queries=len(traced.reads),
            inserts=len(traced.inserts),
            client_s=sum(t1 - t0 for _r, t0, t1, _g in traced.inserts)
            + sum(t1 - t0 for _i, _n, t0, t1, _r in traced.reads),
            verified=sum(r.n_verified for r in ok_reads),
            total=sum(r.n_total for r in ok_reads),
            user_bytes=len(traced.inserts) * self.length * 8,
            overhead_pct=100.0 * (plain_rate / traced.insert_rate() - 1.0),
            in_flight_peak=after["server"]["peak_in_flight"],
            steal_pct=steal(),
            reference_ms=traced.clock.reference_ms(),
            extras=path_latencies(plain),
        )
        return per_layer(window)


def path_latencies(timings: "List[_Timings]") -> "Dict[str, float]":
    """p50/p90 of the insert-ack and insert-to-push paths over every round (ms, unscaled)."""
    out = {}
    for name, attr in (("serving.insert_ack", "ack_ms"), ("continuous.notify", "notes")):
        values = [ms for timed in timings for _t, ms in getattr(timed, attr)]
        for q in (50, 90):
            out[f"{name}_p{q}_ms"] = percentile(values, q)
    return out


class _Timings:
    """What one round's timed loop recorded (client clocks)."""

    def __init__(self, inserts, reads, notes, clock: HostClock, rss_mb: float):
        self.inserts = inserts  # (stream row, t_send, t_ack, gid)
        self.reads = reads  # (read row, rows inserted, t0, t1, result)
        self.notes = notes  # (t_receive, insert-to-push ms)
        self.clock = clock
        self.rss_mb = rss_mb  # peak RSS of the round's server
        self.start, self.end = inserts[0][1], inserts[-1][2]
        #: scaled read latencies (ms), the gated ones
        self.read_ms = clock.scale([(t1, (t1 - t0) * 1000.0) for _i, _n, t0, t1, _r in reads])
        self.ack_ms = [(t1, (t1 - t0) * 1000.0) for _r, t0, t1, _g in inserts]

    def insert_rate(self) -> float:
        """Acknowledged inserts per second of scaled loop time.

        The loop's time is that of its inserts and reads; the reference
        task between them is not counted.
        """
        busy = [(t1, t1 - t0) for _r, t0, t1, _g in self.inserts]
        busy += [(t1, t1 - t0) for _i, _n, t0, t1, _r in self.reads]
        return len(self.inserts) / sum(seconds for _t, seconds in self.clock.scale(busy))

    def describe(self) -> str:
        paths = ", ".join(f"{k} {v:.2f}" for k, v in path_latencies([self]).items())
        return (
            f"{len(self.inserts)} inserts, {len(self.notes)} notifications, "
            f"{len(self.reads)} reads; {paths}; reference task "
            f"{self.clock.reference_ms():.3f} ms (scale {self.clock.factor():.3f})"
        )


class _Session:
    """A running server with its subscriber and writer connections."""

    def __init__(self, server: ServerProcess):
        self.server = server
        self.subscriber = None
        self.writer = None
        self.sids: "List[str]" = []
        self.watched = None
        self.generation0 = 0

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        if self.subscriber is not None:
            self.subscriber.close()
        self.server.stop()
