"""Integration tests: the full archive -> reduce -> index -> search pipeline."""

import numpy as np
import pytest

from repro.data import UCRLikeArchive
from repro.distance import dist_lb, dist_par, euclidean
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.metrics import max_deviation
from repro.reduction import REDUCERS, SAPLAReducer


@pytest.fixture(scope="module")
def archive():
    return UCRLikeArchive(length=128, n_series=20, n_queries=3)


class TestEndToEnd:
    @pytest.mark.parametrize("name", ["ECG200", "Adiac", "EOGHorizontalSignal"])
    def test_full_pipeline(self, archive, name):
        dataset = archive.load(name)
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(dataset.data)
        for query in dataset.queries:
            truth = db.ground_truth(query, 4)
            result = db.knn(query, 4)
            assert len(result.ids) == 4
            # DBCH with Dist_PAR should retrieve well on homogeneous data
            assert result.accuracy_against(truth) >= 0.5

    def test_every_method_end_to_end(self, archive):
        dataset = archive.load("Car")
        for name, cls in REDUCERS.items():
            db = SeriesDatabase(cls(12), index=IndexKind.DBCH)
            db.ingest(dataset.data)
            result = db.knn(dataset.queries[0], 3)
            assert len(result.ids) == 3, name

    def test_quality_stack_consistency(self, archive):
        """Reductions, distances, and metrics agree on the same data."""
        dataset = archive.load("Beef")
        reducer = SAPLAReducer(12)
        a, b = dataset.data[0], dataset.data[1]
        rep_a, rep_b = reducer.transform(a), reducer.transform(b)
        true = euclidean(a, b)
        assert dist_lb(a, rep_b) <= true + 1e-9
        assert dist_par(rep_a, rep_b) == pytest.approx(
            euclidean(rep_a.reconstruct(), rep_b.reconstruct())
        )
        assert max_deviation(a, rep_a.reconstruct()) >= 0.0

    def test_reduction_compresses(self, archive):
        """Representation coefficient count is far below the series length."""
        dataset = archive.load("Coffee")
        rep = SAPLAReducer(12).transform(dataset.data[0])
        assert rep.n_coefficients == 12
        assert rep.n_coefficients < dataset.length / 4

    def test_larger_budget_means_better_quality(self, archive):
        dataset = archive.load("Adiac")
        devs = []
        for m in (6, 12, 24):
            reducer = SAPLAReducer(m)
            devs.append(
                float(
                    np.mean(
                        [
                            max_deviation(s, reducer.reconstruct(reducer.transform(s)))
                            for s in dataset.data[:8]
                        ]
                    )
                )
            )
        assert devs[2] <= devs[0] + 1e-9  # more coefficients, no worse


class TestRobustness:
    def test_flat_dataset(self):
        data = np.zeros((10, 64))
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(data)
        result = db.knn(np.zeros(64), 3)
        assert len(result.ids) == 3
        assert result.distances[0] == 0.0

    def test_single_series_collection(self):
        data = np.random.default_rng(0).normal(size=(1, 64))
        for index_kind in (IndexKind.RTREE, IndexKind.DBCH, None):
            db = SeriesDatabase(SAPLAReducer(12), index=index_kind)
            db.ingest(data)
            result = db.knn(data[0], 1)
            assert result.ids == [0]

    def test_extreme_values(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(8, 64)) * 1e6
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(data)
        result = db.knn(data[2], 2)
        assert result.ids[0] == 2

    def test_short_series_collection(self):
        data = np.random.default_rng(2).normal(size=(12, 8))
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(data)
        result = db.knn(data[5], 3)
        assert result.ids[0] == 5
