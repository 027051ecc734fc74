"""Parameter sweep — the paper's grid M in {12, 18, 24}, K in {4..64}.

The full figures average over this grid; this bench sweeps it on a compact
slice and checks the monotone trends the paper relies on: more coefficients
tighten the bounds (pruning power does not degrade), and larger K forces
more verification (pruning power grows with K).
"""

import numpy as np

from repro.bench import run_index_grid
from repro.bench.harness import ExperimentConfig
from repro.distance import dist_par
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer

from conftest import publish_table


def _mean(records, key, **match):
    values = [
        r[key]
        for r in records
        if r["kind"] == "knn"
        and r["method"] != "LinearScan"
        and all(r.get(field) == want for field, want in match.items())
    ]
    return float(np.mean(values))


def test_sweep_m_and_k(benchmark, config, bench_report):
    cfg = ExperimentConfig(
        dataset_names=("Adiac", "Car"),
        length=min(config.length, 256),
        n_series=min(config.n_series, 20),
        n_queries=2,
        coefficients=(12, 24),
        ks=(4, 16),
        methods=("SAPLA", "APCA", "PAA"),
    )
    with bench_report("sweep_m_k"):
        records = run_index_grid(cfg)

    rows = []
    for m in cfg.coefficients:
        for k in cfg.ks:
            rows.append(
                {
                    "M": m,
                    "K": k,
                    "pruning_power": _mean(records, "pruning_power", M=m, k=k),
                    "accuracy": _mean(records, "accuracy", M=m, k=k),
                }
            )
    publish_table("sweep_m_k", "Sweep — pruning/accuracy over M and K", rows)

    by = {(r["M"], r["K"]): r for r in rows}
    # larger K must verify at least as much (kth-best threshold loosens)
    for m in cfg.coefficients:
        assert by[(m, 16)]["pruning_power"] >= by[(m, 4)]["pruning_power"] - 0.05
    # more coefficients must not hurt pruning at fixed K
    for k in cfg.ks:
        assert by[(24, k)]["pruning_power"] <= by[(12, k)]["pruning_power"] + 0.1
    # accuracy stays a valid fraction everywhere
    assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)

    rng = np.random.default_rng(11)
    reducer = SAPLAReducer(24)
    rep_a = reducer.transform(rng.normal(size=cfg.length).cumsum())
    rep_b = reducer.transform(rng.normal(size=cfg.length).cumsum())
    benchmark(dist_par, rep_a, rep_b)


def test_sweep_bulk_vs_incremental(benchmark, config, bench_report):
    """Extension bench: packed bulk loading vs incremental insertion."""
    import time

    from repro.index import SeriesDatabase

    archive_cfg = ExperimentConfig(
        dataset_names=("Adiac",),
        length=min(config.length, 256),
        n_series=min(config.n_series, 24),
        n_queries=2,
    )
    dataset = next(archive_cfg.datasets())
    rows = []
    with bench_report("sweep_bulk", rows=rows):
        for index_kind in (IndexKind.RTREE, IndexKind.DBCH):
            for bulk in (False, True):
                db = SeriesDatabase(SAPLAReducer(12), index=index_kind)
                reps = [db.reducer.transform(s) for s in dataset.data]
                started = time.process_time()
                db.ingest(dataset.data, representations=reps, bulk=bulk)
                build = time.process_time() - started
                counts = db.tree.node_counts()
                truth = db.ground_truth(dataset.queries[0], 4)
                result = db.knn(dataset.queries[0], 4)
                rows.append(
                    {
                        "index": index_kind,
                        "mode": "bulk" if bulk else "incremental",
                        "build_time_s": build,
                        "total_nodes": counts["total"],
                        "accuracy": result.accuracy_against(truth),
                    }
                )
    publish_table("sweep_bulk", "Extension — bulk vs incremental loading", rows)

    by = {(r["index"], r["mode"]): r for r in rows}
    for index_kind in ("rtree", "dbch"):
        assert (
            by[(index_kind, "bulk")]["total_nodes"]
            <= by[(index_kind, "incremental")]["total_nodes"]
        )

    db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.RTREE)
    reps = [db.reducer.transform(s) for s in dataset.data]
    benchmark(db.ingest, dataset.data, representations=reps, bulk=True)
