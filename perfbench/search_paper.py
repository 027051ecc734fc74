"""Workload ``search_paper``: the paper's configuration, searched in process.

~500 z-normalised series of length 256 reduced by SAPLA to 12
coefficients, indexed by a DBCH-tree and searched with the default
Dist_PAR bound, through ``repro.client.connect(db)``.  One client runs a
closed loop of ``knn`` requests carrying 4 distinct queries each.  Query
reduction, Dist_PAR bounds and the tree walk do almost all the work;
serving, WAL and storage do none.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from typing import List

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
    own_peak_rss_mb,
    per_layer,
    perf,
    scaled_setup,
)
from hostspeed import COMPUTE, HostClock
from stats import median, percentile, window_stat

#: the tail percentile: a 25 s run makes ~150 requests, ~15 of them beyond p90
TAIL = 90.0
#: distinct queries per ``knn`` request
BATCH = 4


@dataclass
class SearchPaper:
    series: int = 500
    length: int = 256
    setups: int = 3
    warmup_requests: int = 2

    def build(self, data: np.ndarray, seed: int):
        """Build the database, connect, warm up; returns (client, seconds)."""
        from repro import DistanceMode, IndexKind
        from repro.client import KnnRequest, connect
        from repro.index import SeriesDatabase
        from repro.reduction import SAPLAReducer

        start = perf()
        db = SeriesDatabase(
            SAPLAReducer(n_coefficients=COEFFICIENTS),
            index=IndexKind.DBCH,
            distance_mode=DistanceMode.PAR,
        )
        db.ingest(data)
        client = connect(db)
        warm = inputs.warmup_queries(seed, data, BATCH * self.warmup_requests)
        for i in range(self.warmup_requests):
            client.knn(KnnRequest(warm[i * BATCH:(i + 1) * BATCH], k=K))
        return client, perf() - start

    def loop(self, client, stream, first: int, seconds: float, clock: HostClock) -> "List[tuple]":
        """Closed loop until ``seconds`` pass: ``(first query, t0, t1, results)``.

        The reference task is timed on ``clock`` before every request.
        """
        from repro.client import KnnRequest

        records = []
        index = first
        stop = perf() + seconds
        while perf() < stop:
            clock.sample()
            queries = stream.rows(index, index + BATCH)
            t0 = perf()
            results = client.knn(KnnRequest(queries, k=K))
            records.append((index, t0, perf(), results))
            index += BATCH
        return records

    def check(self, records, stream, data, tally: Tally) -> None:
        for first, _t0, _t1, results in records:
            queries = stream.rows(first, first + BATCH)
            for query, result in zip(queries, results):
                if result.timed_out:
                    tally.attempt(False, "query timed out")
                    continue
                tally.judge(oracle.true_distances(data, query), result.ids, result.distances)

    def latencies(self, records, clock: HostClock) -> "List[tuple]":
        """``(t1, scaled request seconds)`` of every request."""
        return clock.scale([(t1, t1 - t0) for _i, t0, t1, _r in records])

    def qps(self, records, clock: HostClock) -> float:
        """Window median of queries per second of scaled request time (one client)."""
        return window_stat(
            self.latencies(records, clock),
            records[0][1],
            records[-1][2],
            lambda spans: BATCH / np.mean(spans),
        )

    def run(self, ctx: Context):
        data = inputs.collection(ctx.seed, self.series, self.length)
        stream = inputs.QueryStream(ctx.seed, data)
        tally = Tally(exact=False)
        if not ctx.trace:
            setups = []
            for _ in range(self.setups):
                # free the previous database first: the peak RSS is one database's
                client = None
                gc.collect()
                client, seconds = scaled_setup(lambda: self.build(data, ctx.seed), COMPUTE)
                setups.append(seconds)
            clock = HostClock(COMPUTE)
            records = self.loop(client, stream, 0, ctx.seconds, clock)
            rss = own_peak_rss_mb()
            self.check(records, stream, data, tally)
            start, end = records[0][1], records[-1][2]
            latencies = [(t1, s * 1000.0) for t1, s in self.latencies(records, clock)]
            print(
                f"search_paper: {len(records)} requests, reference task "
                f"{clock.reference_ms():.3f} ms (scale {clock.factor():.3f})",
                file=sys.stderr,
            )
            return tally, end_to_end(
                setups,
                tally,
                rss,
                self.qps(records, clock),
                window_stat(latencies, start, end, median),
                percentile([ms for _t, ms in latencies], TAIL),
            )
        return tally, self.traced(ctx, data, stream, tally)

    def traced(self, ctx: Context, data, stream, tally: Tally):
        """Half the time untraced, then rebuild under the tracer for the rest."""
        from repro import obs
        from tracer import Tracer

        client, _ = self.build(data, ctx.seed)
        plain_clock, traced_clock = HostClock(COMPUTE), HostClock(COMPUTE)
        plain = self.loop(client, stream, 0, ctx.seconds / 2, plain_clock)
        tracer = Tracer().install()
        try:
            obs.enable()
            client, _ = self.build(data, ctx.seed)
            before = dict(obs.registry().snapshot()["counters"])
            steal = host_steal()
            start = perf()
            first = plain[-1][0] + BATCH
            traced = self.loop(client, stream, first, ctx.seconds / 2, traced_clock)
            end = perf()
            steal_pct = steal()
            after = dict(obs.registry().snapshot()["counters"])
        finally:
            obs.disable()
            tracer.uninstall()
        self.check(plain + traced, stream, data, tally)
        results = [r for rec in traced for r in rec[3]]
        window = TracedWindow(
            spans=tracer.spans,
            start=start,
            end=end,
            counters=counter_delta(before, after),
            queries=len(results),
            inserts=0,
            client_s=sum(t1 - t0 for _i, t0, t1, _r in traced),
            verified=sum(r.n_verified for r in results),
            total=sum(r.n_total for r in results),
            overhead_pct=100.0 * (
                self.qps(plain, plain_clock) / self.qps(traced, traced_clock) - 1.0
            ),
            steal_pct=steal_pct,
            reference_ms=traced_clock.reference_ms(),
        )
        return per_layer(window)
