"""The benchmark's metric catalogue: names, units, direction and bounds.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's own tests keep the two in step.  End-to-end metrics come from
untraced runs (``--trace 0``), per-layer metrics from traced runs
(``--trace 1``).  Per-layer counts and self times are normalised per
end-to-end operation (one k-NN query or one insert), so they compare
across versions that complete different numbers of operations in the same
seconds.
"""

from __future__ import annotations

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("success_rate", "fraction", "higher", 0.01),
    ("recall", "fraction", "higher", 0.02),
    ("rss_mb", "MB", "lower", 0.1),
    ("ops_per_s", "1/s", "higher", 0.24),
    ("p50_ms", "ms", "lower", 0.24),
    ("tail_ms", "ms", "lower", 0.24),
]

#: (name, unit, better)
PER_LAYER = [
    ("reduction.transform_calls", "count/op", "lower"),
    ("reduction.transform_ms", "ms/op", "lower"),
    ("reduction.batch_rows", "rows/call", "higher"),
    ("reduction.transform_batch_ms", "ms/op", "lower"),
    ("distance.bound_calls", "count/op", "lower"),
    ("distance.bound_ms", "ms/op", "lower"),
    ("distance.cheap_bounds", "count/op", "higher"),
    ("distance.refines", "count/op", "lower"),
    ("index.nodes_visited", "count/op", "lower"),
    ("index.nodes_pruned", "count/op", "higher"),
    ("index.verified_ratio", "fraction", "lower"),
    ("index.insert_calls", "count/op", "lower"),
    ("index.insert_ms", "ms/op", "lower"),
    ("index.splits", "count/op", "lower"),
    ("index.hull_recomputations", "count/op", "lower"),
    ("engine.knn_batch_calls", "count/op", "lower"),
    ("engine.queries_per_call", "queries/call", "higher"),
    ("engine.self_ms", "ms/op", "lower"),
    ("engine.rounds", "count/op", "lower"),
    ("serving.requests", "count/op", "lower"),
    ("serving.shed", "count/op", "lower"),
    ("serving.frame_encode_ms", "ms/op", "lower"),
    ("serving.frame_decode_ms", "ms/op", "lower"),
    ("serving.outside_engine_ms", "ms/op", "lower"),
    ("serving.in_flight_peak", "count", "lower"),
    ("serving.insert_ack_p50_ms", "ms", "lower"),
    ("serving.insert_ack_p90_ms", "ms", "lower"),
    ("storage.page_reads", "count/op", "lower"),
    ("storage.page_writes", "count/op", "lower"),
    ("storage.cache_hits", "count/op", "higher"),
    ("storage.get_rows_ms", "ms/op", "lower"),
    ("storage.put_row_ms", "ms/op", "lower"),
    ("storage.column_builds", "count/op", "lower"),
    ("lifecycle.wal_append_ms", "ms/op", "lower"),
    ("lifecycle.wal_sync_ms", "ms/op", "lower"),
    ("lifecycle.fsyncs", "count/op", "lower"),
    ("lifecycle.wal_bytes_per_user_byte", "ratio", "lower"),
    ("continuous.eval_ms", "ms/op", "lower"),
    ("continuous.delta_evals", "count/op", "lower"),
    ("continuous.full_reruns", "count/op", "lower"),
    ("continuous.notifications", "count/op", "higher"),
    ("continuous.dropped", "count/op", "lower"),
    ("continuous.notify_p50_ms", "ms", "lower"),
    ("continuous.notify_p90_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.ops", "count", "higher"),
    ("host.steal_pct", "%", "lower"),
    ("host.reference_ms", "ms", "lower"),
]


def units(trace: bool) -> "dict[str, str]":
    """Metric name -> unit for a traced or an untraced run."""
    table = PER_LAYER if trace else END_TO_END
    return {row[0]: row[1] for row in table}
