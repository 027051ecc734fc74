"""One facade, three backends: ``repro.client.connect`` end to end.

The same typed :class:`KnnRequest`/:class:`RangeRequest` objects must get
the same answers from an in-process database, a saved database directory,
a sharded home, and a live TCP server.
"""

import asyncio
import threading
import warnings

import numpy as np
import pytest

from repro.client import (
    KnnRequest,
    LocalClient,
    QueryResult,
    RangeRequest,
    ServerError,
    TcpClient,
    connect,
)
from repro.index import SeriesDatabase
from repro.kinds import DistanceMode
from repro.reduction import PAA
from repro.serving import ReproServer, ServerConfig, ShardedEngine

LENGTH = 32


def make_db(count=24):
    rng = np.random.default_rng(1)
    db = SeriesDatabase(PAA(8), index=None, distance_mode=DistanceMode.PAR)
    db.ingest(rng.normal(size=(count, LENGTH)).cumsum(axis=1))
    return db


def reference_answers(db, queries, k=5):
    from repro.engine import QueryOptions

    return db.knn_batch(queries, QueryOptions(k=k)).results


def assert_matches(results, reference):
    assert len(results) == len(reference)
    for got, want in zip(results, reference):
        assert isinstance(got, QueryResult)
        assert got.ids == want.ids
        assert got.distances == want.distances


class TestRequestTypes:
    def test_knn_request_coerces_single_series(self):
        request = KnnRequest(queries=np.zeros(LENGTH), k=3)
        assert request.queries.shape == (1, LENGTH)

    def test_knn_request_validates_eagerly(self):
        with pytest.raises(ValueError):
            KnnRequest(queries=np.zeros(LENGTH), k=0)
        with pytest.raises(ValueError):
            KnnRequest(queries=np.zeros((2, 2, 2)))

    def test_range_request_validates(self):
        with pytest.raises(ValueError):
            RangeRequest(query=np.zeros((2, LENGTH)), radius=1.0)
        with pytest.raises(ValueError):
            RangeRequest(query=np.zeros(LENGTH), radius=-1.0)

    def test_payload_round_trip_is_exact(self):
        rng = np.random.default_rng(7)
        request = KnnRequest(queries=rng.normal(size=(2, LENGTH)), k=4, lookahead=2)
        back = KnnRequest.from_payload(request.to_payload())
        np.testing.assert_array_equal(back.queries, request.queries)
        assert back.k == 4 and back.lookahead == 2

    def test_query_result_payload_round_trip(self):
        result = QueryResult(
            ids=[3, 1], distances=[0.5, 1.25], n_verified=4, n_total=10,
            generation=(1, 2, 3),
        )
        back = QueryResult.from_payload(result.to_payload())
        assert back == result
        assert back.pruning_power == pytest.approx(0.4)


class TestLocalBackends:
    def test_connect_to_database_object(self):
        db = make_db()
        queries = np.asarray(db.data)[:3] + 0.01
        with connect(db) as client:
            assert isinstance(client, LocalClient)
            results = client.knn(KnnRequest(queries=queries, k=5))
        assert_matches(results, reference_answers(db, queries))
        assert db.data is not None  # borrowed backends are not torn down

    def test_connect_to_saved_directory(self, tmp_path):
        db = make_db()
        db.save(tmp_path / "db")
        queries = np.asarray(db.data)[:2]
        with connect(tmp_path / "db") as client:
            results = client.knn(KnnRequest(queries=queries, k=4))
            stats = client.stats()
        assert_matches(results, reference_answers(db, queries, k=4))
        assert stats["server"]["backend"] == "local"

    def test_connect_to_sharded_home(self, tmp_path):
        db = make_db()
        ShardedEngine.from_database(db, 3).save(tmp_path / "home")
        queries = np.asarray(db.data)[:3]
        with connect(tmp_path / "home") as client:
            assert client.database.n_shards == 3
            results = client.knn(KnnRequest(queries=queries, k=6))
            stats = client.stats()
        assert_matches(results, reference_answers(db, queries, k=6))
        assert stats["server"]["shards"] == 3

    def test_range_query_through_facade(self):
        db = make_db()
        data = np.asarray(db.data)
        radius = float(np.linalg.norm(data[0] - data[1])) + 1e-9
        want = db.range_query(data[0], radius)
        with connect(db) as client:
            got = client.range(RangeRequest(query=data[0], radius=radius))
        assert got.ids == want.ids
        assert got.distances == want.distances

    def test_connect_rejects_unknown_targets(self, tmp_path):
        with pytest.raises(ValueError):
            connect(tmp_path / "nowhere")
        with pytest.raises(TypeError):
            connect(42)

    def test_ping(self):
        with connect(make_db()) as client:
            assert client.ping() is True


class _ServerThread:
    """Host a ReproServer on a background event loop for the sync TcpClient."""

    def __init__(self, engine, config=None):
        self.server = ReproServer(engine, config or ServerConfig())
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        started.wait(timeout=10)

    @property
    def port(self):
        return self.server.port

    def stop(self):
        async def shutdown():
            await self.server.stop()
            self.loop.stop()

        asyncio.run_coroutine_threadsafe(shutdown(), self.loop)
        self.thread.join(timeout=10)
        self.loop.close()


class TestTcpBackend:
    def test_tcp_client_bit_identical(self):
        db = make_db()
        queries = np.asarray(db.data)[:3] + 0.01
        reference = reference_answers(db, queries)
        host = _ServerThread(ShardedEngine.from_database(db, 2))
        try:
            with TcpClient("127.0.0.1", host.port) as client:
                assert client.ping() is True
                results = client.knn(KnnRequest(queries=queries, k=5))
                stats = client.stats()
        finally:
            host.stop()
        assert_matches(results, reference)
        assert stats["server"]["shards"] == 2

    def test_connect_tcp_url(self):
        db = make_db()
        host = _ServerThread(db)
        try:
            with connect(f"tcp://127.0.0.1:{host.port}") as client:
                assert isinstance(client, TcpClient)
                results = client.knn(KnnRequest(queries=np.asarray(db.data)[:1], k=2))
        finally:
            host.stop()
        assert results[0].ids[0] == 0

    def test_server_error_surfaces(self):
        db = make_db()
        host = _ServerThread(db)
        try:
            with connect(f"tcp://127.0.0.1:{host.port}") as client:
                with pytest.raises(ServerError):
                    # wrong series length: the engine rejects it server-side
                    client.knn(KnnRequest(queries=np.zeros(7), k=2))
        finally:
            host.stop()


class TestDeprecatedEntryPoints:
    def test_db_engine_accessor_does_not_warn(self):
        db = make_db()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            db.engine().knn_batch(np.asarray(db.data)[:1])
        assert not [w for w in caught if w.category is DeprecationWarning]
