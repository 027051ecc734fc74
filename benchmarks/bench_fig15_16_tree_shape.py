"""Figs. 15, 16 — index size and space efficiency.

Paper shape: for adaptive-length methods the DBCH-tree packs leaves fuller
(about 4 entries/leaf vs about 2 for the R-tree), needs roughly a quarter of
the internal nodes, fewer total nodes and lower height; equal-length methods
show only minor differences between the two indexes.
"""

import pytest

from repro.bench import summarise_tree_shape
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer

from conftest import publish_table

ADAPTIVE = ("SAPLA", "APLA", "APCA")


def test_fig15_16_tree_shape(benchmark, config, index_grid, bench_report):
    with bench_report("fig15_16_tree_shape"):
        rows = summarise_tree_shape(index_grid)
    publish_table("fig15_16_tree_shape", "Figs 15/16 — node counts & height", rows)
    by = {(r["method"], r["index"]): r for r in rows}

    for method in config.methods:
        for index_kind in ("rtree", "dbch"):
            row = by[(method, index_kind)]
            assert row["total_nodes"] == pytest.approx(
                row["internal_nodes"] + row["leaf_nodes"]
            )
            assert row["height"] >= 1

    # adaptive methods: DBCH-tree no larger than the R-tree on average
    adaptive_dbch = sum(by[(m, "dbch")]["total_nodes"] for m in ADAPTIVE)
    adaptive_rtree = sum(by[(m, "rtree")]["total_nodes"] for m in ADAPTIVE)
    assert adaptive_dbch <= adaptive_rtree * 1.1
    # ... and heights do not exceed the R-tree's
    for method in ADAPTIVE:
        assert by[(method, "dbch")]["height"] <= by[(method, "rtree")]["height"] + 1

    dataset = next(config.datasets())
    db = SeriesDatabase(SAPLAReducer(config.coefficients[0]), index=IndexKind.DBCH)
    db.ingest(dataset.data)
    benchmark(db.tree.node_counts)
