"""Single-series insert and a stateful CRUD property test for the database."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import PAA, SAPLAReducer


class TestInsert:
    def test_insert_into_empty(self):
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        series = np.random.default_rng(0).normal(size=32)
        assert db.insert(series) == 0
        assert db.knn(series, 1).ids == [0]

    def test_insert_after_ingest(self):
        data = np.random.default_rng(1).normal(size=(10, 32)).cumsum(axis=1)
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.RTREE)
        db.ingest(data)
        new = data[0] * -2.0
        new_id = db.insert(new)
        assert new_id == 10
        assert db.knn(new, 1).ids == [10]

    def test_insert_length_mismatch(self):
        db = SeriesDatabase(PAA(8), index=None)
        db.ingest(np.zeros((3, 16)))
        with pytest.raises(ValueError):
            db.insert(np.zeros(8))

    def test_ids_stable_after_delete(self):
        data = np.random.default_rng(2).normal(size=(5, 16))
        db = SeriesDatabase(PAA(8), index=IndexKind.DBCH)
        db.ingest(data)
        db.delete(2)
        new_id = db.insert(np.random.default_rng(3).normal(size=16))
        assert new_id == 5  # append-only ids


class DatabaseMachine(RuleBasedStateMachine):
    """CRUD consistency: the database must always agree with a plain model.

    Uses the no-tree, guaranteed-lower-bound configuration where search is
    provably exact, so any disagreement is a genuine bug.
    """

    def __init__(self):
        super().__init__()
        self.rng = np.random.default_rng(1234)
        self.db = SeriesDatabase(PAA(8), index=None)
        self.model: "dict[int, np.ndarray]" = {}

    @initialize()
    def seed_database(self):
        data = self.rng.normal(size=(3, 24)).cumsum(axis=1)
        self.db.ingest(data)
        self.model = {i: data[i] for i in range(3)}

    @rule()
    def insert_series(self):
        series = self.rng.normal(size=24).cumsum()
        new_id = self.db.insert(series)
        assert new_id not in self.model
        self.model[new_id] = series

    @rule(offset=st.integers(min_value=0, max_value=10_000))
    def delete_some_series(self, offset):
        if not self.model:
            return
        ids = sorted(self.model)
        victim = ids[offset % len(ids)]
        assert self.db.delete(victim)
        del self.model[victim]

    @rule(offset=st.integers(min_value=0, max_value=10_000))
    def delete_missing_is_noop(self, offset):
        missing = max(self.model, default=0) + 1000 + offset
        assert not self.db.delete(missing)

    @invariant()
    def knn_matches_model(self):
        if not self.model:
            return
        query = self.rng.normal(size=24).cumsum()
        k = min(3, len(self.model))
        result = self.db.knn(query, k)
        expected = sorted(
            self.model, key=lambda i: float(np.linalg.norm(query - self.model[i]))
        )[:k]
        assert result.ids == expected


DatabaseMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestDatabaseCRUD = DatabaseMachine.TestCase
