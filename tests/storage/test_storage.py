"""Tests for the paged store and the disk-backed database."""

import numpy as np
import pytest

from repro.kinds import DistanceMode, IndexKind
from repro.reduction import PAA, SAPLAReducer
from repro.storage import DiskBackedDatabase, PagedSeriesStore

DATA = np.random.default_rng(0).normal(size=(40, 64)).cumsum(axis=1)


class TestPagedStore:
    def test_write_and_read_round_trip(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "store.bin", DATA)
        for i in (0, 7, 39):
            np.testing.assert_allclose(store.read(i), DATA[i])
        np.testing.assert_allclose(store.read_all(), DATA)

    def test_open_existing(self, tmp_path):
        PagedSeriesStore.write(tmp_path / "store.bin", DATA)
        store = PagedSeriesStore.open(tmp_path / "store.bin")
        assert len(store) == 40
        assert store.length == 64
        np.testing.assert_allclose(store.read(3), DATA[3])

    def test_page_reads_counted(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA, page_size=256, cache_pages=2)
        store.stats.reset()
        store.read(0)
        assert store.stats.page_reads >= 2  # 64 * 8 bytes = 2 pages of 256

    def test_cache_hits(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA, page_size=4096, cache_pages=8)
        store.stats.reset()
        store.read(0)
        first = store.stats.page_reads
        store.read(0)  # same pages again
        assert store.stats.page_reads == first
        assert store.stats.cache_hits > 0

    def test_lru_eviction(self, tmp_path):
        store = PagedSeriesStore.write(tmp_path / "s.bin", DATA, page_size=512, cache_pages=1)
        store.stats.reset()
        store.read(0)
        store.read(30)  # far away: evicts
        reads_before = store.stats.page_reads
        store.read(0)  # must re-read
        assert store.stats.page_reads > reads_before

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PagedSeriesStore(tmp_path / "x.bin", page_size=8)
        with pytest.raises(ValueError):
            PagedSeriesStore(tmp_path / "x.bin", cache_pages=0)
        with pytest.raises(ValueError):
            PagedSeriesStore.write(tmp_path / "x.bin", np.zeros(4))
        store = PagedSeriesStore.write(tmp_path / "ok.bin", DATA)
        with pytest.raises(IndexError):
            store.read(100)

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\0" * 8)
        with pytest.raises(ValueError):
            PagedSeriesStore.open(path)


class TestDiskBackedDatabase:
    def test_search_matches_memory_database(self, tmp_path):
        from repro.index import SeriesDatabase

        disk = DiskBackedDatabase(
            SAPLAReducer(12), tmp_path / "db.bin", index=IndexKind.DBCH
        )
        disk.ingest(DATA)
        memory = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        memory.ingest(DATA)
        query = DATA[5] + 0.05
        a = disk.knn(query, 4)
        b = memory.knn(query, 4)
        assert a.ids == b.ids
        assert a.distances == pytest.approx(b.distances)

    @pytest.mark.parametrize("index", [None, IndexKind.DBCH, IndexKind.RTREE], ids=str)
    def test_range_query_matches_brute_force(self, tmp_path, index):
        """Range on a disk-backed database, direct and through the client
        facade, returns the brute-force in-radius set bit for bit."""
        from repro.client import RangeRequest, connect
        from repro.index import linear_scan

        disk = DiskBackedDatabase(PAA(8), tmp_path / "db.bin", index=index)
        disk.ingest(DATA)
        query = DATA[5] + np.random.default_rng(1).normal(scale=0.05, size=64)
        radius = linear_scan(DATA, query, 6).distances[-1]
        distances = np.linalg.norm(DATA - query[None, :], axis=1)
        truth = sorted((float(d), i) for i, d in enumerate(distances) if d <= radius)
        direct = disk.range_query(query, radius)
        assert list(zip(direct.distances, direct.ids)) == truth
        via_client = connect(disk).range(RangeRequest(query, radius))
        assert list(zip(via_client.distances, via_client.ids)) == truth
        assert direct.n_verified < len(DATA)

    def test_io_tracks_verifications(self, tmp_path):
        disk = DiskBackedDatabase(
            SAPLAReducer(12),
            tmp_path / "db.bin",
            index=None,
            distance_mode=DistanceMode.LB,
        )
        disk.ingest(DATA)
        disk.reset_io()
        result = disk.knn(DATA[0] + 0.01, 1)
        stats = disk.io_stats
        # pruning means far fewer page accesses than a full scan
        full_scan_accesses = len(DATA) * disk.store.pages_per_series()
        assert stats.total_accesses < full_scan_accesses
        assert result.n_verified < len(DATA)

    def test_ground_truth_reads_everything(self, tmp_path):
        disk = DiskBackedDatabase(SAPLAReducer(12), tmp_path / "db.bin")
        disk.ingest(DATA)
        disk.reset_io()
        truth = disk.ground_truth(DATA[3], 2)
        assert truth.ids[0] == 3
        assert disk.io_stats.total_accesses >= len(DATA)

    def test_search_before_ingest_rejected(self, tmp_path):
        disk = DiskBackedDatabase(SAPLAReducer(12), tmp_path / "db.bin")
        with pytest.raises(RuntimeError):
            disk.knn(np.zeros(8), 1)
        with pytest.raises(RuntimeError):
            disk.ground_truth(np.zeros(8), 1)
