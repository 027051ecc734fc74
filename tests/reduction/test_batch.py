"""``transform_batch`` on the equal-length methods must match per-row reducers."""

import numpy as np
import pytest

from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import PAA, PLA

DATA = np.random.default_rng(0).normal(size=(12, 97)).cumsum(axis=1)


class TestBatchPAA:
    def test_matches_per_row(self):
        batch = PAA(12).transform_batch(DATA)
        reducer = PAA(12)
        for row, rep in zip(DATA, batch):
            ref = reducer.transform(row)
            assert rep.right_endpoints == ref.right_endpoints
            np.testing.assert_allclose(rep.reconstruct(), ref.reconstruct(), atol=1e-12)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            PAA(12).transform_batch(DATA[0])


class TestBatchPLA:
    def test_matches_per_row(self):
        batch = PLA(12).transform_batch(DATA)
        reducer = PLA(12)
        for row, rep in zip(DATA, batch):
            ref = reducer.transform(row)
            assert rep.right_endpoints == ref.right_endpoints
            np.testing.assert_allclose(rep.reconstruct(), ref.reconstruct(), atol=1e-9)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            PLA(12).transform_batch(DATA[0])

    def test_short_series(self):
        tiny = np.random.default_rng(1).normal(size=(3, 5))
        batch = PLA(12).transform_batch(tiny)
        reducer = PLA(12)
        for row, rep in zip(tiny, batch):
            np.testing.assert_allclose(
                rep.reconstruct(), reducer.transform(row).reconstruct(), atol=1e-9
            )


class TestIngestIntegration:
    def test_precomputed_batch_feeds_ingest(self):
        reps = PAA(12).transform_batch(DATA)
        db = SeriesDatabase(PAA(12), index=IndexKind.DBCH)
        db.ingest(DATA, representations=reps)
        result = db.knn(DATA[3], 1)
        assert result.ids == [3]
