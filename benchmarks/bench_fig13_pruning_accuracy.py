"""Fig. 13 — pruning power (13a) and accuracy (13b), R-tree vs DBCH-tree.

Paper shape: the adaptive-length methods gain the most from the DBCH-tree
(their APCA-style MBRs overlap in the R-tree); equal-length methods behave
similarly under both indexes.

The headline cell (SAPLA on the DBCH-tree) is additionally executed as an
experiment-service ``pruning`` trial and published through
:func:`conftest.publish_trial`, so its per-bound pruning counters land in
``fig13_pruning_accuracy.report.json`` and (when
``REPRO_EXPERIMENT_STORE`` is set) in the results store.
"""

from repro.bench import summarise_pruning_accuracy
from repro.experiments import EngineSpec, ReducerSpec, ScaleSpec, TrialSpec, run_trial
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer

from conftest import publish_table

ADAPTIVE = ("SAPLA", "APLA", "APCA")
EQUAL = ("PLA", "PAA", "SAX")


def test_fig13_pruning_and_accuracy(benchmark, config, index_grid, publish_trial):
    rows = summarise_pruning_accuracy(index_grid)
    publish_table("fig13_pruning_accuracy", "Fig 13 — pruning power & accuracy", rows)
    by = {(r["method"], r["index"]): r for r in rows}

    # adaptive methods: DBCH accuracy at least matches the R-tree's
    for method in ADAPTIVE:
        assert by[(method, "dbch")]["accuracy"] >= by[(method, "rtree")]["accuracy"] - 0.05
    # equal-length methods change little between the two indexes
    for method in EQUAL:
        assert abs(
            by[(method, "dbch")]["pruning_power"] - by[(method, "rtree")]["pruning_power"]
        ) <= 0.3
    # every pruning power is a valid fraction
    for row in rows:
        assert 0.0 <= row["pruning_power"] <= 1.0
        assert 0.0 <= row["accuracy"] <= 1.0

    # the headline cell as a service trial: per-bound pruning ratios from obs
    dataset = next(config.datasets())
    n_series, length = dataset.data.shape
    trial = TrialSpec(
        index=0,
        workload="pruning",
        scale=ScaleSpec("fig13", length, n_series, min(len(dataset.queries), 8)),
        reducer=ReducerSpec("SAPLA", config.coefficients[0]),
        index_kind=IndexKind.DBCH,
        engine=EngineSpec(k=config.ks[0]),
        repeat=0,
        seed=13,
    )
    derived, report, elapsed = run_trial(trial)
    assert 0.0 <= derived["pruning_power"] <= 1.0
    assert 0.0 <= derived["accuracy"] <= 1.0
    assert "verified_ratio" in derived  # pruning counters were captured
    publish_trial("fig13_pruning_accuracy", trial, report, derived, elapsed)

    # benchmark kernel: one DBCH k-NN query
    db = SeriesDatabase(SAPLAReducer(config.coefficients[0]), index=IndexKind.DBCH)
    db.ingest(dataset.data)
    benchmark(db.knn, dataset.queries[0], config.ks[0])
