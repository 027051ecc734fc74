"""What the two workloads share: run context, answer tally, metric assembly."""

from __future__ import annotations

import pathlib
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

import oracle
from hostspeed import HostClock, Reference
from stats import median
from tracer import analyse, top_level_seconds

#: neighbours per query, everywhere
K = 8
#: coefficient budget of every reducer
COEFFICIENTS = 12

perf = time.perf_counter


@dataclass
class Context:
    """One benchmark run: its seed, timed seconds, trace flag and places."""

    seed: int
    seconds: float
    trace: bool
    src: pathlib.Path
    work: pathlib.Path


class Tally:
    """Operations attempted and failed, plus the recall of checked answers.

    ``exact`` workloads fail any answer that dismissed a true neighbour;
    the others only require that returned distances are the true ones.
    """

    def __init__(self, exact: bool):
        self.exact = exact
        self.attempted = 0
        self.failed = 0
        self.recalls: "List[float]" = []
        self.reasons: "List[str]" = []

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def judge(self, distances: np.ndarray, ids: Sequence[int], returned: Sequence[float]) -> None:
        """Count one answer and check it against the oracle's distances."""
        self.attempted += 1
        verdict = oracle.check(distances, K, ids, returned)
        self.recalls.append(verdict.recall)
        if not verdict.valid or (self.exact and not verdict.exact):
            self.fail(verdict.reason)

    def attempt(self, ok: bool, reason: str = "") -> None:
        """Count one operation that has no answer to check (e.g. an insert)."""
        self.attempted += 1
        if not ok:
            self.fail(reason)

    @property
    def recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else 1.0

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0

    def report(self) -> None:
        for reason in self.reasons:
            print(f"failure: {reason}", file=sys.stderr)


def scaled_setup(build: "Callable[[], tuple]", reference: Reference) -> tuple:
    """Run ``build() -> (result, seconds)`` between reference samples.

    Returns ``(result, seconds)`` with the seconds scaled to the host speed
    of three reference samples just before and three just after the set-up.
    """
    clock = HostClock(reference)
    clock.sample(3)
    result, seconds = build()
    clock.sample(3)
    return result, seconds * clock.factor()


def own_peak_rss_mb() -> float:
    """Peak RSS of this process in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    setups: "Sequence[float]",
    tally: Tally,
    rss_mb: float,
    ops_per_s: float,
    p50_ms: float,
    tail_ms: float,
) -> "Dict[str, float]":
    """The end-to-end metric set every workload reports."""
    return {
        "setup_s": median(setups),
        "success_rate": tally.success_rate,
        "recall": tally.recall,
        "rss_mb": rss_mb,
        "ops_per_s": ops_per_s,
        "p50_ms": p50_ms,
        "tail_ms": tail_ms,
    }


def counter_delta(before: dict, after: dict) -> "Dict[str, float]":
    """How much each counter grew between two snapshots."""
    return {name: after.get(name, 0) - before.get(name, 0) for name in after}


def server_counters(stats_reply: dict) -> "Dict[str, float]":
    """The obs counters in a ``repro serve`` ``stats`` reply (empty when off)."""
    return stats_reply.get("stats", {}).get("counters", {})


def host_steal():
    """Start measuring CPU steal; the returned callable gives its share (%).

    Steal is time the hypervisor ran something else while this machine's
    CPUs wanted to run (``/proc/stat``); 0.0 where it is not reported.
    """

    def sample():
        try:
            with open("/proc/stat") as stat:
                fields = [int(v) for v in stat.readline().split()[1:]]
        except (OSError, ValueError):
            return 0, 0
        return (fields[7] if len(fields) > 7 else 0), sum(fields)

    steal0, total0 = sample()

    def share() -> float:
        steal1, total1 = sample()
        return 100.0 * (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0

    return share


#: spans that begin a request's work inside the program
_ENGINE_SIDE = ("engine.knn_batch", "continuous.insert")

#: per-layer path latencies only the mixed workload measures
PATH_LATENCIES = (
    "serving.insert_ack_p50_ms",
    "serving.insert_ack_p90_ms",
    "continuous.notify_p50_ms",
    "continuous.notify_p90_ms",
)


@dataclass
class TracedWindow:
    """Everything the per-layer metrics are derived from, for one window.

    ``ops`` counts end-to-end operations (k-NN queries plus inserts);
    ``client_s`` is the summed client-observed time of those operations.
    """

    spans: "List[tuple]"
    start: float
    end: float
    counters: "Dict[str, float]"
    queries: int
    inserts: int
    client_s: float
    verified: int = 0
    total: int = 0
    user_bytes: int = 0
    overhead_pct: float = 0.0
    in_flight_peak: float = 0.0
    steal_pct: float = 0.0
    reference_ms: float = 0.0
    extras: "Dict[str, float]" = field(default_factory=dict)


def per_layer(window: TracedWindow) -> "Dict[str, float]":
    """Per-layer metrics: per-operation counts and self times, plus ratios."""
    stats = analyse(window.spans, window.start, window.end)
    ops = max(window.queries + window.inserts, 1)
    c = window.counters

    def calls(*names: str) -> float:
        return sum(stats[n].calls for n in names if n in stats) / ops

    def self_ms(*names: str) -> float:
        return sum(stats[n].self_s for n in names if n in stats) * 1000.0 / ops

    def per_op(counter: str) -> float:
        return c.get(counter, 0) / ops

    def mean_size(name: str) -> float:
        s = stats.get(name)
        return s.size / s.calls if s is not None and s.calls else 0.0

    # time under the outermost engine-side span of each request
    outer_s = top_level_seconds(
        [s for s in window.spans if s[3] in _ENGINE_SIDE], window.start, window.end
    )
    covered_s = top_level_seconds(window.spans, window.start, window.end)
    metrics = {
        "reduction.transform_calls": calls("reduction.transform"),
        "reduction.transform_ms": self_ms("reduction.transform"),
        "reduction.batch_rows": mean_size("reduction.transform_batch"),
        "reduction.transform_batch_ms": self_ms("reduction.transform_batch"),
        "distance.bound_calls": calls("distance.bound", "distance.bound_batch"),
        "distance.bound_ms": self_ms("distance.bound", "distance.bound_batch"),
        "distance.cheap_bounds": per_op("cascade.cheap_bounds"),
        "distance.refines": per_op("cascade.refines"),
        "index.nodes_visited": per_op("knn.nodes_visited"),
        "index.nodes_pruned": per_op("knn.nodes_pruned"),
        "index.verified_ratio": window.verified / window.total if window.total else 0.0,
        "index.insert_calls": calls("index.insert"),
        "index.insert_ms": self_ms("index.insert"),
        "index.splits": per_op("dbch.splits"),
        "index.hull_recomputations": per_op("dbch.hull_recomputations"),
        "engine.knn_batch_calls": calls("engine.knn_batch"),
        "engine.queries_per_call": mean_size("engine.knn_batch"),
        "engine.self_ms": self_ms("engine.knn_batch"),
        "engine.rounds": per_op("engine.rounds"),
        "serving.requests": per_op("server.requests"),
        "serving.shed": per_op("server.shed"),
        "serving.frame_encode_ms": self_ms("serving.encode"),
        "serving.frame_decode_ms": self_ms("serving.decode"),
        "serving.outside_engine_ms": max(window.client_s - outer_s, 0.0) * 1000.0 / ops
        if window.counters.get("server.requests") else 0.0,
        "serving.in_flight_peak": window.in_flight_peak,
        "storage.page_reads": per_op("storage.page_reads"),
        "storage.page_writes": per_op("storage.page_writes"),
        "storage.cache_hits": per_op("storage.cache_hits"),
        "storage.get_rows_ms": self_ms("storage.get_rows"),
        "storage.put_row_ms": self_ms("storage.put_row"),
        "storage.column_builds": per_op("columns.builds"),
        "lifecycle.wal_append_ms": self_ms("lifecycle.wal_append"),
        "lifecycle.wal_sync_ms": self_ms("lifecycle.wal_sync"),
        "lifecycle.fsyncs": per_op("wal.fsyncs"),
        "lifecycle.wal_bytes_per_user_byte": c.get("wal.bytes_written", 0) / window.user_bytes
        if window.user_bytes else 0.0,
        "continuous.eval_ms": self_ms("continuous.insert"),
        "continuous.delta_evals": per_op("continuous.delta_evals"),
        "continuous.full_reruns": per_op("continuous.full_reruns"),
        "continuous.notifications": per_op("continuous.notifications"),
        "continuous.dropped": per_op("continuous.dropped"),
        "trace.overhead_pct": window.overhead_pct,
        "trace.coverage_pct": 100.0 * covered_s / window.client_s if window.client_s else 0.0,
        "trace.ops": float(ops),
        "host.steal_pct": window.steal_pct,
        "host.reference_ms": window.reference_ms,
    }
    metrics.update({name: 0.0 for name in PATH_LATENCIES})
    metrics.update(window.extras)
    return metrics
