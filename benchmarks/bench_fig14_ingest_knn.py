"""Fig. 14 — data ingest time (14a) and k-NN CPU time (14b, + linear scan).

Paper shape: APLA needs by far the most ingest time (reduction dominates);
the DBCH-tree costs more to build than the R-tree (distance-based geometry);
SAPLA/APLA spend a little more k-NN time in the DBCH-tree because their
tight Dist_PAR bounds are costlier per candidate.
"""

from repro.bench import summarise_ingest_knn
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer

from conftest import publish_table


def test_fig14_ingest_and_knn_time(benchmark, config, index_grid, bench_report):
    rows = summarise_ingest_knn(index_grid)
    publish_table("fig14_ingest_knn", "Fig 14 — ingest & k-NN CPU time", rows)
    by = {(r["method"], r["index"]): r for r in rows}

    # 14a: APLA has the largest ingest time on both indexes
    for index_kind in ("rtree", "dbch"):
        ingests = {
            method: by[(method, index_kind)]["ingest_time_s"]
            for method in config.methods
        }
        assert ingests["APLA"] == max(ingests.values())
        assert ingests["SAPLA"] < ingests["APLA"]
    # the DBCH-tree needs more build time than the R-tree (paper Sec. 7)
    dbch_total = sum(by[(m, "dbch")]["ingest_time_s"] for m in config.methods)
    rtree_total = sum(by[(m, "rtree")]["ingest_time_s"] for m in config.methods)
    assert dbch_total >= rtree_total
    # the linear scan row exists for Fig. 14b's last bar
    assert ("LinearScan", "none") in by

    # machine-readable sibling of the table: one instrumented ingest+query
    # pass (the .txt above stays byte-identical; this adds a .report.json)
    dataset = next(config.datasets())
    with bench_report(
        "fig14_ingest_knn",
        dataset=dataset.name,
        method="SAPLA",
        index="dbch",
        k=config.ks[0],
        coefficients=config.coefficients[0],
    ):
        instrumented = SeriesDatabase(
            SAPLAReducer(config.coefficients[0]), index=IndexKind.DBCH
        )
        instrumented.ingest(dataset.data)
        for query in dataset.queries:
            instrumented.knn(query, config.ks[0])

    db = SeriesDatabase(SAPLAReducer(config.coefficients[0]), index=IndexKind.DBCH)
    benchmark(db.ingest, dataset.data)
