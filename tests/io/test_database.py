"""Round-trip tests for whole-database persistence."""

import numpy as np
import pytest

from repro.index import SeriesDatabase
from repro.io import open_database
from repro.kinds import DistanceMode, IndexKind
from repro.reduction import CHEBY, PAA, SAX, SAPLAReducer

DATA = np.random.default_rng(0).normal(size=(30, 64)).cumsum(axis=1)


@pytest.mark.parametrize(
    "reducer_cls", [SAPLAReducer, PAA, CHEBY, SAX], ids=lambda c: c.name
)
@pytest.mark.parametrize("index_kind", [IndexKind.DBCH, IndexKind.RTREE, None], ids=str)
def test_round_trip_preserves_search(tmp_path, reducer_cls, index_kind):
    original = SeriesDatabase(reducer_cls(12), index=index_kind)
    original.ingest(DATA)
    original.save(tmp_path / "db")
    loaded = open_database(tmp_path / "db")

    query = DATA[5] + 0.01
    a = original.knn(query, 4)
    b = loaded.knn(query, 4)
    assert a.ids == b.ids
    assert a.distances == pytest.approx(b.distances)
    assert loaded.index_kind == index_kind
    assert loaded.reducer.name == reducer_cls.name


def test_save_before_ingest_rejected(tmp_path):
    db = SeriesDatabase(PAA(12))
    with pytest.raises(ValueError):
        db.save(tmp_path / "db")


def test_config_contents(tmp_path):
    import json

    db = SeriesDatabase(
        SAPLAReducer(18), index=IndexKind.DBCH, distance_mode=DistanceMode.LB
    )
    db.ingest(DATA)
    db.save(tmp_path / "db")
    config = json.loads((tmp_path / "db" / "config.json").read_text())
    assert config["reducer"] == "SAPLA"
    assert config["n_coefficients"] == 18
    assert config["distance_mode"] == "lb"
    loaded = open_database(tmp_path / "db")
    assert loaded.suite.mode == "lb"


def test_loaded_database_skips_reduction(tmp_path, monkeypatch):
    """Loading must reuse stored representations, not re-transform."""
    db = SeriesDatabase(PAA(12), index=None)
    db.ingest(DATA)
    db.save(tmp_path / "db")

    calls = {"n": 0}
    original_transform = PAA.transform

    def counting_transform(self, series):
        calls["n"] += 1
        return original_transform(self, series)

    monkeypatch.setattr(PAA, "transform", counting_transform)
    open_database(tmp_path / "db")
    assert calls["n"] == 0
