"""``transform_batch`` must be bit-identical to per-series ``transform``.

The write side (ingest, insert_batch, WAL replay, bulk load) batches every
reduction through :meth:`repro.reduction.Reducer.transform_batch`; its
contract is *bit* equality with the scalar path, not closeness, so a
database built either way answers every query identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import REDUCERS, reduce_rows
from repro.reduction.base import Reducer

REDUCER_NAMES = sorted(REDUCERS)
LENGTHS = (1, 2, 3, 7, 17, 64, 130)
BUDGETS = (4, 12, 24)

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def _matrix(rng, count, n):
    return np.cumsum(rng.normal(size=(count, n)), axis=1)


def _rep_key(rep):
    """A bit-exact, cache-insensitive key for any representation."""
    segments = getattr(rep, "segments", None)
    if segments is not None:
        return tuple(
            (s.start, s.end, np.float64(s.a).tobytes(), np.float64(s.b).tobytes())
            for s in segments
        )
    coefficients = getattr(rep, "coefficients", None)
    if coefficients is not None:
        return np.asarray(coefficients, dtype=float).tobytes()
    symbols = getattr(rep, "symbols", None)
    if symbols is not None:
        return tuple(symbols)
    raise TypeError(f"no bit-exact key for {type(rep).__name__}")


class TestEquivalenceGrid:
    @pytest.mark.parametrize("name", REDUCER_NAMES)
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_bit_identical_across_lengths(self, name, budget):
        rng = np.random.default_rng(hash((name, budget)) % 2**32)
        reducer = REDUCERS[name](budget)
        for n in LENGTHS:
            matrix = _matrix(rng, 5, n)
            batch = reducer.transform_batch(matrix)
            for row, rep in zip(matrix, batch):
                assert _rep_key(rep) == _rep_key(reducer.transform(row)), (name, budget, n)

    @pytest.mark.parametrize("name", REDUCER_NAMES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_on_arbitrary_values(self, name, data):
        rows = data.draw(
            st.lists(
                st.lists(finite, min_size=9, max_size=9),
                min_size=1,
                max_size=4,
            )
        )
        matrix = np.asarray(rows, dtype=float)
        reducer = REDUCERS[name](6)
        batch = reducer.transform_batch(matrix)
        for row, rep in zip(matrix, batch):
            assert _rep_key(rep) == _rep_key(reducer.transform(row))

    def test_single_point_series(self):
        matrix = np.array([[3.5], [-2.0]])
        for name in REDUCER_NAMES:
            reducer = REDUCERS[name](4)
            batch = reducer.transform_batch(matrix)
            for row, rep in zip(matrix, batch):
                assert _rep_key(rep) == _rep_key(reducer.transform(row)), name


class TestValidation:
    def test_rejects_1d(self):
        for name in REDUCER_NAMES:
            with pytest.raises(ValueError):
                REDUCERS[name](4).transform_batch(np.zeros(8))

    def test_rejects_empty(self):
        for name in REDUCER_NAMES:
            with pytest.raises(ValueError):
                REDUCERS[name](4).transform_batch(np.zeros((0, 8)))

    def test_rejects_non_finite(self):
        matrix = np.ones((2, 8))
        matrix[1, 3] = np.nan
        for name in REDUCER_NAMES:
            with pytest.raises(ValueError):
                REDUCERS[name](4).transform_batch(matrix)


class TestObservability:
    def test_batch_counters(self):
        matrix = _matrix(np.random.default_rng(0), 6, 32)
        obs.set_registry(obs.MetricsRegistry(enabled=True))
        try:
            REDUCERS["PAA"](8).transform_batch(matrix)
            counters = obs.registry().snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["reduce.batch_calls"] == 1
        assert counters["reduce.batch_rows"] == 6
        # PAA has a vectorised kernel: no scalar fallback recorded
        assert "reduce.scalar_fallback" not in counters

    def test_scalar_fallback_counted(self):
        matrix = _matrix(np.random.default_rng(0), 4, 32)
        obs.set_registry(obs.MetricsRegistry(enabled=True))
        try:
            REDUCERS["CHEBY"](8).transform_batch(matrix)
            counters = obs.registry().snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["reduce.scalar_fallback"] == 4


class TestReduceRows:
    def test_duck_typed_reducer_falls_back(self):
        class Plain:
            def transform(self, row):
                return float(np.sum(row))

        matrix = np.arange(12, dtype=float).reshape(3, 4)
        assert reduce_rows(Plain(), matrix) == [6.0, 22.0, 38.0]

    def test_empty_matrix(self):
        assert reduce_rows(REDUCERS["PAA"](4), np.zeros((0, 8))) == []


class TestFanout:
    def test_parallel_matches_sequential(self):
        matrix = _matrix(np.random.default_rng(2), 12, 48)
        reducer = REDUCERS["SAPLA"](12)
        sequential = reducer.transform_batch(matrix)
        parallel = reducer.transform_batch(matrix, parallelism=2)
        for a, b in zip(sequential, parallel):
            assert _rep_key(a) == _rep_key(b)


class TestDatabaseEquivalence:
    """A bulk-built database answers queries identically to an incremental one."""

    @pytest.mark.parametrize("name", ("SAPLA", "PAA", "APCA"))
    def test_bulk_vs_incremental_knn_batch(self, name):
        rng = np.random.default_rng(9)
        data = _matrix(rng, 28, 48)
        queries = _matrix(rng, 4, 48)

        bulk_db = SeriesDatabase(REDUCERS[name](12), index=IndexKind.DBCH)
        bulk_db.ingest(data, bulk=True)

        incremental = SeriesDatabase(REDUCERS[name](12), index=IndexKind.DBCH)
        incremental.ingest(data[:1])
        for row in data[1:]:
            incremental.insert(row)
        incremental._flush_pending()

        bulk_results = bulk_db.knn_batch(queries)
        inc_results = incremental.knn_batch(queries)
        for a, b in zip(bulk_results.results, inc_results.results):
            assert a.ids == b.ids
            assert a.distances == b.distances

    def test_insert_batch_matches_insert_loop(self):
        rng = np.random.default_rng(13)
        data = _matrix(rng, 16, 48)
        extra = _matrix(rng, 6, 48)

        loop_db = SeriesDatabase(REDUCERS["SAPLA"](12), index=IndexKind.DBCH)
        loop_db.ingest(data)
        batch_db = SeriesDatabase(REDUCERS["SAPLA"](12), index=IndexKind.DBCH)
        batch_db.ingest(data)

        loop_ids = [loop_db.insert(row) for row in extra]
        batch_ids = batch_db.insert_batch(extra)
        assert loop_ids == list(batch_ids)
        loop_db._flush_pending()
        batch_db._flush_pending()
        for e1, e2 in zip(loop_db.entries, batch_db.entries):
            assert e1.series_id == e2.series_id
            assert _rep_key(e1.representation) == _rep_key(e2.representation)
