"""Tests for bulk loading of both index structures."""

import numpy as np
import pytest

from repro.index import SeriesDatabase, bulk_load_dbch, bulk_load_rtree
from repro.index.entries import Entry
from repro.index.mbr import Box
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer


def point_entries(count, dims=4, seed=0):
    points = np.random.default_rng(seed).normal(size=(count, dims))
    return [Entry(series_id=i, representation=float(p[0]), feature=p) for i, p in enumerate(points)]


def reachable_ids(tree):
    seen = set()
    for node in tree.iter_nodes():
        if node.is_leaf:
            seen.update(e.series_id for e in node.entries)
    return seen


class TestBulkRTree:
    @pytest.mark.parametrize("count", [0, 1, 5, 6, 37, 200])
    def test_all_entries_reachable(self, count):
        tree = bulk_load_rtree(point_entries(count))
        assert len(tree) == count
        if count:
            assert reachable_ids(tree) == set(range(count))

    def test_boxes_contain_children(self):
        tree = bulk_load_rtree(point_entries(60, seed=1))
        for node in tree.iter_nodes():
            if node.is_leaf:
                for entry in node.entries:
                    assert node.box.contains(Box.of_point(entry.feature))
            else:
                for child in node.children:
                    assert node.box.contains(child.box)
                    assert child.parent is node

    def test_fill_is_dense(self):
        """Packed leaves average close to the maximum fill."""
        tree = bulk_load_rtree(point_entries(100, seed=2), max_entries=5)
        counts = tree.node_counts()
        assert 100 / counts["leaf"] >= 3.5

    def test_missing_feature_rejected(self):
        with pytest.raises(ValueError):
            bulk_load_rtree([Entry(series_id=0, representation=1.0, feature=None)])


class TestBulkDBCH:
    @staticmethod
    def distance(a, b):
        return abs(a - b)

    @pytest.mark.parametrize("count", [0, 1, 5, 6, 37, 200])
    def test_all_entries_reachable(self, count):
        entries = point_entries(count, seed=3)
        tree = bulk_load_dbch(entries, self.distance)
        assert len(tree) == count
        if count:
            assert reachable_ids(tree) == set(range(count))

    def test_hulls_computed(self):
        tree = bulk_load_dbch(point_entries(50, seed=4), self.distance)
        for node in tree.iter_nodes():
            assert node.hull is not None
            assert node.volume >= 0.0

    def test_similar_entries_grouped(self):
        """Distance ordering should put the two value clusters in
        different subtrees."""
        values = [0.0, 0.1, 0.2, 0.3, 100.0, 100.1, 100.2, 100.3]
        entries = [Entry(series_id=i, representation=v) for i, v in enumerate(values)]
        tree = bulk_load_dbch(entries, self.distance, max_entries=4)
        leaves = [n for n in tree.iter_nodes() if n.is_leaf]
        for leaf in leaves:
            vals = [e.representation for e in leaf.entries]
            assert max(vals) - min(vals) < 50  # never mixes the clusters


class TestDatabaseBulkIngest:
    def test_bulk_search_matches_incremental(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(50, 64)).cumsum(axis=1)
        query = data[7] + 0.05
        for index_kind in (IndexKind.RTREE, IndexKind.DBCH):
            incremental = SeriesDatabase(SAPLAReducer(12), index=index_kind)
            incremental.ingest(data)
            packed = SeriesDatabase(SAPLAReducer(12), index=index_kind)
            packed.ingest(data, bulk=True)
            a = incremental.knn(query, 5)
            b = packed.knn(query, 5)
            assert b.ids[0] == a.ids[0] == 7

    def test_bulk_tree_is_flatter_or_equal(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(60, 64)).cumsum(axis=1)
        incremental = SeriesDatabase(SAPLAReducer(12), index=IndexKind.RTREE)
        incremental.ingest(data)
        packed = SeriesDatabase(SAPLAReducer(12), index=IndexKind.RTREE)
        packed.ingest(data, bulk=True)
        assert packed.tree.height <= incremental.tree.height
        assert packed.tree.node_counts()["total"] <= incremental.tree.node_counts()["total"]
