"""k-NN engine tests: exactness of linear scan, pruning accounting, and the
paper's qualitative index comparisons."""

import numpy as np
import pytest

from repro.index import SeriesDatabase, linear_scan
from repro.kinds import DistanceMode, IndexKind
from repro.reduction import PAA, PLA, SAPLAReducer, APCA


def dataset(count=40, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


class TestLinearScan:
    def test_finds_exact_neighbours(self):
        data = dataset()
        query = data[3] + 0.01
        result = linear_scan(data, query, 3)
        assert result.ids[0] == 3
        assert result.n_verified == len(data)
        assert result.pruning_power == 1.0

    def test_distances_sorted(self):
        data = dataset(seed=1)
        result = linear_scan(data, np.zeros(64), 10)
        assert result.distances == sorted(result.distances)

    def test_k_larger_than_collection(self):
        data = dataset(count=5, seed=2)
        result = linear_scan(data, np.zeros(64), 10)
        assert len(result.ids) == 5


class TestKNNResult:
    def test_accuracy_against_truth(self):
        from repro.index.knn import KNNResult

        truth = KNNResult(ids=[1, 2, 3, 4], distances=[0] * 4, n_verified=4, n_total=4)
        got = KNNResult(ids=[1, 2, 9, 8], distances=[0] * 4, n_verified=4, n_total=4)
        assert got.accuracy_against(truth) == 0.5
        assert truth.accuracy_against(truth) == 1.0

    def test_empty_truth(self):
        from repro.index.knn import KNNResult

        empty = KNNResult(ids=[], distances=[], n_verified=0, n_total=0)
        assert empty.accuracy_against(empty) == 1.0
        assert empty.pruning_power == 0.0


@pytest.mark.parametrize("index_kind", [None, IndexKind.RTREE, IndexKind.DBCH], ids=str)
@pytest.mark.parametrize("reducer_cls", [SAPLAReducer, APCA, PLA, PAA], ids=lambda c: c.name)
class TestSearchModes:
    def test_search_runs_and_returns_k(self, index_kind, reducer_cls):
        data = dataset(seed=3)
        db = SeriesDatabase(reducer_cls(12), index=index_kind)
        db.ingest(data)
        result = db.knn(data[0] + 0.05, 4)
        assert len(result.ids) == 4
        assert result.n_total == len(data)
        assert 0 < result.n_verified <= len(data)

    def test_self_query_finds_itself(self, index_kind, reducer_cls):
        data = dataset(seed=4)
        db = SeriesDatabase(reducer_cls(12), index=index_kind)
        db.ingest(data)
        result = db.knn(data[7], 1)
        assert result.ids == [7]
        assert result.distances[0] == pytest.approx(0.0, abs=1e-9)


class TestGuarantees:
    def test_filtered_scan_with_guaranteed_lb_is_exact(self):
        """GEMINI with a true lower bound and no tree never misses."""
        data = dataset(count=60, seed=5)
        db = SeriesDatabase(SAPLAReducer(12), index=None, distance_mode=DistanceMode.LB)
        db.ingest(data)
        rng = np.random.default_rng(6)
        for _ in range(5):
            query = data[rng.integers(60)] + rng.normal(scale=0.2, size=64)
            got = db.knn(query, 5)
            truth = db.ground_truth(query, 5)
            assert got.accuracy_against(truth) == 1.0
            assert got.distances == pytest.approx(truth.distances)

    def test_filtered_scan_prunes(self):
        """The lower bound must actually skip most raw verifications."""
        data = dataset(count=100, seed=7)
        db = SeriesDatabase(SAPLAReducer(12), index=None, distance_mode=DistanceMode.LB)
        db.ingest(data)
        result = db.knn(data[0] + 0.01, 1)
        assert result.pruning_power < 0.8

    def test_equal_length_filtered_scan_exact(self):
        data = dataset(count=60, seed=8)
        for reducer in (PAA(12), PLA(12)):
            db = SeriesDatabase(reducer, index=None)
            db.ingest(data)
            query = data[11] + 0.1
            got = db.knn(query, 5)
            truth = db.ground_truth(query, 5)
            assert got.accuracy_against(truth) == 1.0


class TestPaperComparisons:
    """Qualitative shape of Figs. 13-16 on a small homogeneous collection."""

    @staticmethod
    def build(index_kind, reducer_cls=SAPLAReducer, count=50, seed=9):
        data = dataset(count=count, seed=seed)
        db = SeriesDatabase(reducer_cls(12), index=index_kind)
        db.ingest(data)
        return db, data

    def test_dbch_accuracy_reasonable_for_adaptive(self):
        db, data = self.build(IndexKind.DBCH)
        rng = np.random.default_rng(10)
        accs = []
        for _ in range(5):
            query = data[rng.integers(len(data))] + rng.normal(scale=0.3, size=64)
            got = db.knn(query, 4)
            accs.append(got.accuracy_against(db.ground_truth(query, 4)))
        assert np.mean(accs) >= 0.6

    def test_dbch_leaves_fuller_than_rtree(self):
        """Fig. 15: DBCH leaves pack ~4 entries, R-tree leaves ~2, for
        adaptive representations."""
        db_r, _ = self.build(IndexKind.RTREE)
        db_d, _ = self.build(IndexKind.DBCH)
        r_counts = db_r.tree.node_counts()
        d_counts = db_d.tree.node_counts()
        r_fill = len(db_r.entries) / r_counts["leaf"]
        d_fill = len(db_d.entries) / d_counts["leaf"]
        assert d_fill >= r_fill * 0.9  # DBCH at least as space-efficient

    def test_invalid_index_kind(self):
        with pytest.raises(ValueError):
            SeriesDatabase(SAPLAReducer(12), index="btree")

    def test_search_before_ingest_rejected(self):
        db = SeriesDatabase(SAPLAReducer(12))
        with pytest.raises(RuntimeError):
            db.knn(np.zeros(8), 1)

    def test_ingest_requires_matrix(self):
        db = SeriesDatabase(SAPLAReducer(12))
        with pytest.raises(ValueError):
            db.ingest(np.zeros(8))
