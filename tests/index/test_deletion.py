"""Tests for deletion in the R-tree, DBCH-tree, and the database layer."""

import numpy as np
import pytest

from repro.index import RTree, SeriesDatabase
from repro.index.dbch import DBCHTree
from repro.index.entries import Entry
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer

from .test_rtree import check_invariants as check_rtree
from .test_dbch import check_invariants as check_dbch


def rtree_with(points):
    tree = RTree()
    for i, p in enumerate(points):
        tree.insert(Entry(series_id=i, representation=None, feature=np.asarray(p, float)))
    return tree


def dbch_with(values):
    tree = DBCHTree(lambda a, b: abs(a - b))
    for i, v in enumerate(values):
        tree.insert(Entry(series_id=i, representation=float(v)))
    return tree


class TestRTreeDeletion:
    def test_delete_existing(self):
        points = np.random.default_rng(0).normal(size=(30, 3))
        tree = rtree_with(points)
        assert tree.delete(7)
        assert len(tree) == 29
        check_rtree(tree)
        ids = {e.series_id for n in tree.iter_nodes() if n.is_leaf for e in n.entries}
        assert 7 not in ids and len(ids) == 29

    def test_delete_missing_returns_false(self):
        tree = rtree_with(np.zeros((4, 2)))
        assert not tree.delete(99)
        assert len(tree) == 4

    def test_delete_everything(self):
        points = np.random.default_rng(1).normal(size=(20, 2))
        tree = rtree_with(points)
        for i in range(20):
            assert tree.delete(i)
        assert len(tree) == 0

    def test_underflow_triggers_reinsertion(self):
        """Deleting down to underflow must keep all remaining reachable."""
        points = np.random.default_rng(2).normal(size=(40, 2))
        tree = rtree_with(points)
        for i in range(0, 30):
            tree.delete(i)
        check_rtree(tree)
        ids = {e.series_id for n in tree.iter_nodes() if n.is_leaf for e in n.entries}
        assert ids == set(range(30, 40))

    def test_insert_after_delete(self):
        points = np.random.default_rng(3).normal(size=(12, 2))
        tree = rtree_with(points)
        tree.delete(4)
        tree.insert(Entry(series_id=100, representation=None, feature=np.array([9.0, 9.0])))
        assert len(tree) == 12
        check_rtree(tree)


class TestDBCHDeletion:
    def test_delete_existing(self):
        tree = dbch_with(np.random.default_rng(4).normal(size=25) * 10)
        assert tree.delete(3)
        assert len(tree) == 24
        check_dbch(tree)

    def test_delete_missing(self):
        tree = dbch_with([1.0, 2.0, 3.0])
        assert not tree.delete(9)

    def test_delete_down_to_empty(self):
        tree = dbch_with(np.linspace(0, 10, 15))
        for i in range(15):
            assert tree.delete(i)
        assert len(tree) == 0

    def test_hulls_recomputed(self):
        tree = dbch_with([0.0, 5.0, 10.0])
        tree.delete(2)  # remove the value 10 -> volume shrinks to 5
        assert tree.root.volume == pytest.approx(5.0)


class TestDatabaseDeletion:
    def test_deleted_series_never_returned(self):
        data = np.random.default_rng(5).normal(size=(30, 64)).cumsum(axis=1)
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(data)
        assert db.delete(3)
        result = db.knn(data[3], 5)
        assert 3 not in result.ids
        truth = db.ground_truth(data[3], 5)
        assert 3 not in truth.ids
        assert result.accuracy_against(truth) >= 0.6

    def test_delete_missing_returns_false(self):
        data = np.random.default_rng(6).normal(size=(10, 32))
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.RTREE)
        db.ingest(data)
        assert not db.delete(42)

    def test_counts_shrink(self):
        data = np.random.default_rng(7).normal(size=(10, 32))
        db = SeriesDatabase(SAPLAReducer(12), index=None)
        db.ingest(data)
        db.delete(0)
        result = db.knn(data[1], 2)
        assert result.n_total == 9
