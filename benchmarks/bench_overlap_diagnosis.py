"""Extension — measuring the overlap problem itself (paper Sec. 5.2).

The paper *argues* that APCA-style MBRs of homogeneous adaptive-length
representations overlap; this bench measures it: the fraction of
overlapping sibling pairs in the R-tree, per method, on one homogeneous
dataset.  Adaptive methods (whose right endpoints differ per series) should
overlap at least as much as equal-length methods (whose endpoint dimensions
are constant), and the DBCH-tree's hull overlap should stay moderate.
"""

import numpy as np

from repro.bench.harness import ExperimentConfig
from repro.index import SeriesDatabase, dbch_overlap, leaf_fill, rtree_overlap
from repro.kinds import IndexKind
from repro.reduction import REDUCERS

from conftest import publish_table

METHODS = ("SAPLA", "APLA", "APCA", "PLA", "PAA")


def test_overlap_diagnosis(benchmark, config, bench_report):
    cfg = ExperimentConfig(
        dataset_names=("ECG200",),
        length=min(config.length, 256),
        n_series=min(config.n_series, 24),
        n_queries=1,
    )
    dataset = next(cfg.datasets())
    rows = []
    with bench_report("overlap_diagnosis", dataset=dataset.name, rows=rows):
        for method in METHODS:
            reducer = REDUCERS[method](12)
            reps = [reducer.transform(s) for s in dataset.data]
            db_r = SeriesDatabase(reducer, index=IndexKind.RTREE)
            db_r.ingest(dataset.data, representations=reps)
            db_d = SeriesDatabase(reducer, index=IndexKind.DBCH)
            db_d.ingest(dataset.data, representations=reps)
            rows.append(
                {
                    "method": method,
                    "rtree_overlap": rtree_overlap(db_r.tree),
                    "dbch_overlap": dbch_overlap(db_d.tree),
                    "rtree_leaf_fill": leaf_fill(db_r.tree),
                    "dbch_leaf_fill": leaf_fill(db_d.tree),
                }
            )
    publish_table("overlap_diagnosis", "Extension — sibling overlap per method", rows)

    by = {r["method"]: r for r in rows}
    # every overlap is a valid fraction
    for row in rows:
        assert 0.0 <= row["rtree_overlap"] <= 1.0
        assert 0.0 <= row["dbch_overlap"] <= 1.0
    # homogeneous adaptive representations overlap in the R-tree at least as
    # much as the most box-friendly equal-length method
    adaptive = np.mean([by[m]["rtree_overlap"] for m in ("SAPLA", "APLA", "APCA")])
    equal = min(by[m]["rtree_overlap"] for m in ("PLA", "PAA"))
    assert adaptive >= equal - 0.05

    reducer = REDUCERS["SAPLA"](12)
    db = SeriesDatabase(reducer, index=IndexKind.RTREE)
    db.ingest(dataset.data)
    benchmark(rtree_overlap, db.tree)
