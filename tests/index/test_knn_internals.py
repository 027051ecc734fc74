"""Focused tests of k-NN engine internals and distance-mode effects."""

import numpy as np
import pytest

from repro.index import SeriesDatabase
from repro.kinds import DistanceMode, IndexKind
from repro.reduction import SAPLAReducer


def dataset(count=40, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


class TestNodesVisited:
    def test_tree_search_reports_visits(self):
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(dataset())
        result = db.knn(dataset()[0], 3)
        assert result.nodes_visited >= 1

    def test_filtered_scan_reports_zero_visits(self):
        db = SeriesDatabase(SAPLAReducer(12), index=None)
        db.ingest(dataset(seed=1))
        result = db.knn(dataset(seed=1)[0], 3)
        assert result.nodes_visited == 0


class TestDistanceModes:
    def test_ae_mode_can_lose_neighbours(self):
        """Dist_AE overestimates near-duplicates, so the filtered scan can
        skip the true nearest neighbour — the failure Fig. 10 warns about."""
        rng = np.random.default_rng(2)
        base = rng.normal(size=(30, 64)).cumsum(axis=1)
        db_ae = SeriesDatabase(
            SAPLAReducer(12), index=None, distance_mode=DistanceMode.AE
        )
        db_lb = SeriesDatabase(
            SAPLAReducer(12), index=None, distance_mode=DistanceMode.LB
        )
        db_ae.ingest(base)
        db_lb.ingest(base)
        accs_ae, accs_lb = [], []
        for i in range(6):
            query = base[i] + rng.normal(scale=0.02, size=64)
            truth = db_lb.ground_truth(query, 3)
            accs_ae.append(db_ae.knn(query, 3).accuracy_against(truth))
            accs_lb.append(db_lb.knn(query, 3).accuracy_against(truth))
        assert np.mean(accs_lb) == 1.0
        assert np.mean(accs_lb) >= np.mean(accs_ae)

    def test_par_mode_prunes_at_least_as_well_as_lb(self):
        data = dataset(count=60, seed=3)
        prunes = {}
        for mode in (DistanceMode.PAR, DistanceMode.LB):
            db = SeriesDatabase(SAPLAReducer(12), index=None, distance_mode=mode)
            db.ingest(data)
            prunes[mode] = np.mean(
                [db.knn(data[i] + 0.05, 3).pruning_power for i in range(5)]
            )
        assert prunes["par"] <= prunes["lb"] + 0.1


class TestEdgeCases:
    def test_k_zero_rejected(self):
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(dataset(seed=4))
        with pytest.raises(ValueError):
            db.knn(dataset(seed=4)[0], 0)

    def test_duplicate_series_all_retrievable(self):
        data = np.tile(dataset(count=1, seed=5), (6, 1))
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(data)
        result = db.knn(data[0], 6)
        assert sorted(result.ids) == list(range(6))
        assert all(d == pytest.approx(0.0, abs=1e-9) for d in result.distances)
