"""Tests for the index overlap/fill diagnostics."""

import numpy as np
import pytest

from repro.index import (
    RTree,
    SeriesDatabase,
    dbch_overlap,
    leaf_fill,
    rtree_overlap,
)
from repro.index.dbch import DBCHTree
from repro.index.entries import Entry
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer


def rtree_of(points):
    tree = RTree()
    for i, p in enumerate(points):
        tree.insert(Entry(series_id=i, representation=None, feature=np.asarray(p, float)))
    return tree


class TestRTreeOverlap:
    def test_single_leaf_has_no_overlap(self):
        tree = rtree_of(np.random.default_rng(0).normal(size=(4, 2)))
        assert rtree_overlap(tree) == 0.0

    def test_separated_clusters_low_overlap(self):
        rng = np.random.default_rng(1)
        cluster_a = rng.normal(size=(15, 2)) * 0.1
        cluster_b = rng.normal(size=(15, 2)) * 0.1 + 100.0
        tree = rtree_of(np.vstack([cluster_a, cluster_b]))
        assert rtree_overlap(tree) < 0.5

    def test_interleaved_points_overlap_more(self):
        rng = np.random.default_rng(2)
        spread = rtree_of(rng.normal(size=(40, 6)))  # high-dim noise: boxes overlap
        assert 0.0 <= rtree_overlap(spread) <= 1.0

    def test_leaf_fill(self):
        tree = rtree_of(np.random.default_rng(3).normal(size=(25, 2)))
        fill = leaf_fill(tree)
        assert 2.0 <= fill <= 5.0


class TestDBCHOverlap:
    def test_scalar_tree(self):
        tree = DBCHTree(lambda a, b: abs(a - b))
        values = list(np.linspace(0, 100, 30))
        for i, v in enumerate(values):
            tree.insert(Entry(series_id=i, representation=float(v)))
        frac = dbch_overlap(tree)
        assert 0.0 <= frac <= 1.0
        assert 2.0 <= leaf_fill(tree) <= 5.0

    def test_on_representations(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 64)).cumsum(axis=1)
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(data)
        assert 0.0 <= dbch_overlap(db.tree) <= 1.0

    def test_empty_tree(self):
        tree = DBCHTree(lambda a, b: abs(a - b))
        assert dbch_overlap(tree) == 0.0
        assert leaf_fill(tree) == pytest.approx(0.0)
