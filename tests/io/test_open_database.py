"""Unified persistence: Database.save(path) / repro.io.open_database(path).

One directory format for both database flavours — ``open_database`` reads
``config.json`` and hands back a :class:`SeriesDatabase` or a
:class:`DiskBackedDatabase` as recorded at save time.
"""

import json

import numpy as np
import pytest

from repro.engine import QueryOptions
from repro.index import SeriesDatabase
from repro.io import open_database
from repro.kinds import DistanceMode, IndexKind
from repro.reduction import PAA, SAPLAReducer
from repro.storage import DiskBackedDatabase


def dataset(count=14, n=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


class TestUnifiedRoundTrip:
    def test_memory_database_save_and_open(self, tmp_path):
        data = dataset()
        db = SeriesDatabase(
            SAPLAReducer(6), index=IndexKind.DBCH, distance_mode=DistanceMode.LB
        )
        db.ingest(data)
        db.save(tmp_path / "db")
        loaded = open_database(tmp_path / "db")
        assert isinstance(loaded, SeriesDatabase)
        assert loaded.index_kind is IndexKind.DBCH
        assert loaded.suite.mode == "lb"
        query = data[3] + 0.05
        assert loaded.knn(query, 4).ids == db.knn(query, 4).ids

    def test_memory_config_records_kind(self, tmp_path):
        db = SeriesDatabase(PAA(6), index=None)
        db.ingest(dataset())
        db.save(tmp_path / "db")
        config = json.loads((tmp_path / "db" / "config.json").read_text())
        assert config["kind"] == "memory"
        assert config["index"] is None

    def test_disk_database_save_and_open(self, tmp_path):
        data = dataset()
        db = DiskBackedDatabase(PAA(6), tmp_path / "live.bin", index=IndexKind.RTREE)
        db.ingest(data)
        db.save(tmp_path / "db")
        loaded = open_database(tmp_path / "db")
        assert isinstance(loaded, DiskBackedDatabase)
        query = data[2] + 0.1
        assert loaded.knn(query, 3).ids == db.knn(query, 3).ids
        assert loaded.io_stats.page_reads > 0
        config = json.loads((tmp_path / "db" / "config.json").read_text())
        assert config["kind"] == "disk"

    def test_loaded_database_answers_batches(self, tmp_path):
        data = dataset()
        db = SeriesDatabase(PAA(6), index=None)
        db.ingest(data)
        db.save(tmp_path / "db")
        loaded = open_database(tmp_path / "db")
        batch = loaded.knn_batch(data[:3], QueryOptions(k=3))
        expected = db.knn_batch(data[:3], QueryOptions(k=3))
        for a, b in zip(batch.results, expected.results):
            assert a.ids == b.ids
            assert a.distances == b.distances

    def test_save_before_ingest_raises(self, tmp_path):
        db = SeriesDatabase(PAA(6), index=None)
        with pytest.raises(ValueError):
            db.save(tmp_path / "db")
