"""Span recording, self time and the installed wrappers."""

import threading
import time

from tracer import Tracer, analyse, top_level_seconds


def test_self_time_subtracts_children_and_calls_count_outermost():
    # (id, parent, thread, name, start, end, size)
    spans = [
        (1, 0, 1, "engine.knn_batch", 0.0, 1.0, 4),
        (2, 1, 1, "engine.knn_batch", 0.1, 0.9, 4),
        (3, 2, 1, "distance.bound", 0.2, 0.5, 1),
        (4, 2, 1, "reduction.transform", 0.5, 0.6, 1),
        (5, 0, 2, "serving.encode", 0.3, 0.35, 1),
        (6, 0, 1, "engine.knn_batch", 5.0, 6.0, 1),  # outside the window
    ]
    stats = analyse(spans, 0.0, 2.0)
    engine = stats["engine.knn_batch"]
    assert engine.calls == 1 and engine.size == 4
    assert abs(engine.self_s - (0.2 + 0.4)) < 1e-12
    assert abs(stats["distance.bound"].self_s - 0.3) < 1e-12
    assert abs(top_level_seconds(spans, 0.0, 2.0) - 1.05) < 1e-12


def test_wrappers_keep_one_stack_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("distance.bound", lambda: time.sleep(0.01))
    outer = tracer.wrap("engine.knn_batch", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    by_id = {s[0]: s for s in tracer.spans}
    bounds = [s for s in tracer.spans if s[3] == "distance.bound"]
    assert len(bounds) == 4
    for span in bounds:
        parent = by_id[span[1]]
        assert parent[3] == "engine.knn_batch" and parent[2] == span[2]


def test_install_times_every_layer_and_uninstall_restores():
    from repro.client import KnnRequest, connect
    from repro.index import SeriesDatabase
    from repro.index import knn as knn_module
    from repro.reduction import SAPLAReducer

    import inputs

    original = knn_module.make_suite
    tracer = Tracer().install()
    try:
        data = inputs.collection(2, 40, 32)
        db = SeriesDatabase(SAPLAReducer(n_coefficients=6))
        db.ingest(data)
        db.insert(data[0] + 0.5)
        connect(db).knn(KnnRequest(inputs.queries(2, data, 2), k=3))
    finally:
        tracer.uninstall()
    names = {s[3] for s in tracer.spans}
    assert {"engine.knn_batch", "reduction.transform", "distance.bound", "index.insert"} <= names
    assert knn_module.make_suite is original
