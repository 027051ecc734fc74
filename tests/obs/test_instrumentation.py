"""End-to-end: the instrumented pipeline fills the registry (ISSUE 1 gates)."""

import numpy as np
import pytest

from repro import obs
from repro.index import SeriesDatabase
from repro.kinds import DistanceMode, IndexKind
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.reduction import SAPLAReducer
from repro.storage import DiskBackedDatabase

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def clean_state():
    prev_reg = obs.set_registry(MetricsRegistry(enabled=False))
    prev_rec = obs.set_recorder(SpanRecorder(enabled=False))
    yield
    obs.set_registry(prev_reg)
    obs.set_recorder(prev_rec)


def dataset(count=30, n=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, n)).cumsum(axis=1)


class TestKNNInstrumentation:
    def test_dbch_search_fills_the_core_counters(self):
        data = dataset()
        with obs.capture() as session:
            db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
            db.ingest(data)
            for i in range(3):
                db.knn(data[i] + 0.05, 4)
        report = session.report()
        assert report.counters["knn.queries"] == 3
        assert report.counters["knn.nodes_visited"] > 0
        assert report.counters["knn.entries_refined"] > 0
        assert report.counters["knn.pruned.dist_par"] > 0
        assert report.counters["knn.heap_pushes"] > 0
        assert report.counters["dbch.inserts"] == len(data)
        assert report.counters["sapla.transforms"] >= len(data)
        assert report.counters["dist.par.calls"] > 0
        assert report.gauges["dbch.leaf_fill"] > 0

    def test_counters_reconstruct_pruning_power(self):
        """entries_refined / total must equal the reported pruning power."""
        data = dataset(seed=1)
        with obs.capture() as session:
            db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
            db.ingest(data)
            result = db.knn(data[0] + 0.1, 4)
        counters = session.report().counters
        assert counters["knn.entries_refined"] == result.n_verified
        assert counters["knn.entries_refined"] / len(data) == pytest.approx(
            result.pruning_power
        )

    def test_rtree_and_filtered_scan_paths(self):
        data = dataset(seed=2)
        with obs.capture() as session:
            db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.RTREE)
            db.ingest(data)
            db.knn(data[0], 3)
        counters = session.report().counters
        assert counters["rtree.inserts"] == len(data)
        assert counters["rtree.mbr_recomputations"] > 0
        with obs.capture() as session:
            db = SeriesDatabase(
                SAPLAReducer(12), index=None, distance_mode=DistanceMode.LB
            )
            db.ingest(data)
            db.knn(data[0] + 0.2, 3)
        counters = session.report().counters
        assert counters["knn.pruned.dist_lb"] > 0
        assert counters["dist.lb.calls"] > 0

    def test_span_root_covers_child_time(self):
        """The acceptance gate: the root span covers >= 95% of child time."""
        data = dataset(seed=3)
        with obs.capture():
            with obs.span("cli.knn"):
                db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
                db.ingest(data)
                for i in range(3):
                    db.knn(data[i], 4)
        root = obs.recorder().root.children["cli.knn"]
        assert root.children  # db.ingest + knn.search recorded underneath
        assert root.wall_s >= 0.95 * root.child_wall_s()

    def test_disabled_pipeline_records_nothing(self):
        data = dataset(seed=4)
        db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
        db.ingest(data)
        db.knn(data[0], 3)
        snap = obs.registry().snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        assert obs.recorder().tree() == []


class TestStorageInstrumentation:
    def test_page_io_counters(self, tmp_path):
        data = dataset(count=16, n=128, seed=5)
        with obs.capture() as session:
            db = DiskBackedDatabase(
                SAPLAReducer(12), tmp_path / "store.bin", index=IndexKind.DBCH,
                page_size=512, cache_pages=2,
            )
            db.ingest(data)
            db.knn(data[0] + 0.1, 3)
        counters = session.report().counters
        assert counters["storage.page_writes"] > 0
        assert counters["storage.page_reads"] > 0
        # registry counters agree with the store's own accounting
        assert (
            counters["storage.page_reads"] + counters.get("storage.cache_hits", 0)
            == db.store.stats.total_accesses
        )
