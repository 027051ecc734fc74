"""The oracle, the checker and the seeded inputs."""

import hashlib

import numpy as np
import pytest

import inputs
import oracle
from common import K, Tally


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _inputs(seed: int) -> str:
    data = inputs.collection(seed, 64, 32)
    watched = inputs.watch_queries(seed, data, 4)
    return _digest(
        data,
        inputs.queries(seed, data, 100),
        watched,
        inputs.warmup_queries(seed, data, 3),
        inputs.read_queries(seed, data).rows(0, 70),
        inputs.InsertStream(seed, 32, watched).rows(300),
    )


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs(7) == _inputs(7)


def test_different_seed_gives_different_inputs():
    assert _inputs(7) != _inputs(8)


def test_streams_do_not_depend_on_how_far_a_run_got():
    data = inputs.collection(3, 50, 16)
    stream = inputs.QueryStream(3, data)
    assert np.array_equal(stream.rows(0, 120)[45:101], inputs.QueryStream(3, data).rows(45, 101))
    inserts = inputs.InsertStream(3, 16, data[:4])
    assert np.array_equal(inserts.rows(600)[300], inputs.InsertStream(3, 16, data[:4]).row(300))


def test_collection_is_z_normalised_and_queries_are_distinct():
    data = inputs.collection(1, 200, 64)
    assert np.allclose(data.mean(axis=1), 0.0, atol=1e-9)
    assert np.allclose(data.std(axis=1), 1.0)
    queries = inputs.queries(1, data, 400)
    assert len(np.unique(queries, axis=0)) == 400


def _scene(seed: int = 0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((200, 24))
    query = rng.standard_normal(24)
    distances = oracle.true_distances(data, query)
    ids, dists = oracle.top_k(distances, K)
    return distances, [int(i) for i in ids], [float(d) for d in dists]


def test_correct_answer_passes():
    distances, ids, dists = _scene()
    tally = Tally(exact=True)
    tally.judge(distances, ids, dists)
    assert tally.failed == 0 and tally.recall == 1.0


def test_injected_dismissal_is_caught_on_exact_workloads():
    distances, ids, dists = _scene()
    # drop the true 3rd neighbour and pull in the 9th, with its true distance
    order = np.lexsort((np.arange(len(distances)), distances))
    replacement = int(order[K])
    ids = ids[:2] + ids[3:] + [replacement]
    dists = [float(distances[i]) for i in ids]
    exact = Tally(exact=True)
    exact.judge(distances, ids, dists)
    assert exact.failed == 1 and "dismissal" in exact.reasons[0]
    # the approximate workload records it as lost recall, not as a failure
    approximate = Tally(exact=False)
    approximate.judge(distances, ids, dists)
    assert approximate.failed == 0
    assert approximate.recall == pytest.approx((K - 1) / K)


@pytest.mark.parametrize("exact", [True, False])
def test_injected_wrong_distance_is_caught(exact):
    distances, ids, dists = _scene()
    dists[4] *= 1.0 + 1e-6
    tally = Tally(exact=exact)
    tally.judge(distances, ids, dists)
    assert tally.failed == 1 and "distance" in tally.reasons[0]


@pytest.mark.parametrize("exact", [True, False])
def test_injected_misorder_is_caught(exact):
    distances, ids, dists = _scene()
    ids[2], ids[3] = ids[3], ids[2]
    dists[2], dists[3] = dists[3], dists[2]
    tally = Tally(exact=exact)
    tally.judge(distances, ids, dists)
    assert tally.failed == 1 and "order" in tally.reasons[0]


def test_ties_must_come_in_ascending_id_order():
    distances = np.array([0.0, 1.0, 2.0, 2.0, 3.0] + [9.0] * 10)
    assert oracle.check(distances, 4, [0, 1, 2, 3], distances[[0, 1, 2, 3]]).valid
    verdict = oracle.check(distances, 4, [0, 1, 3, 2], distances[[0, 1, 3, 2]])
    assert not verdict.valid and "order" in verdict.reason


def test_duplicate_or_missing_ids_are_caught():
    distances, ids, dists = _scene()
    for bad_ids, bad_dists in ((ids[:-1], dists[:-1]), (ids[:-1] + ids[:1], dists[:-1] + dists[:1])):
        tally = Tally(exact=False)
        tally.judge(distances, bad_ids, bad_dists)
        assert tally.failed == 1


def test_exact_ties_at_the_kth_place_are_not_misses():
    distances = np.array([0.0, 1.0, 2.0, 2.0, 3.0] + [9.0] * 10)
    ids = [0, 1, 3]  # ties with id 2 at the k-th distance
    verdict = oracle.check(distances, 3, ids, distances[ids])
    assert verdict.valid and verdict.exact


def test_oracle_agrees_with_the_program_on_an_exact_configuration():
    from repro.client import KnnRequest, connect
    from repro.index import SeriesDatabase
    from repro.reduction import PAA

    data = inputs.collection(5, 300, 64)
    db = SeriesDatabase(PAA(n_coefficients=12), index=None)
    db.ingest(data)
    queries = inputs.queries(5, data, 12)
    tally = Tally(exact=True)
    for query, result in zip(queries, connect(db).knn(KnnRequest(queries, k=K))):
        tally.judge(oracle.true_distances(data, query), result.ids, result.distances)
    assert tally.failed == 0 and tally.attempted == 12
