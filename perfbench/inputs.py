"""Seeded workload inputs: collections, queries and insert streams.

Everything the program under test receives is generated here from the
``--seed`` argument and nothing else, so the same seed reproduces the same
bytes.  Each consumer draws from its own child stream of one
:class:`numpy.random.SeedSequence`, so e.g. making a run longer (more
inserts) never changes the collection or the queries.

Collections are a z-normalised mixture of three shapes the paper's
adaptive segmentation cares about: random walks (smooth drift), noisy
sinusoids (periodic structure) and step series (sharp level shifts).
"""

from __future__ import annotations

import numpy as np

#: child-stream indices of the per-run SeedSequence
_COLLECTION, _QUERIES, _INSERTS, _READS, _WATCHES, _WARMUP = range(6)

#: standard deviation of the Gaussian noise added to make a query
QUERY_NOISE = 0.15


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), which]))


def warmup_queries(seed: int, data: np.ndarray, count: int) -> np.ndarray:
    """Queries used only to warm the program up (never timed, never reused)."""
    return QueryStream(seed, data, _WARMUP).rows(0, count)


def znormalise(rows: np.ndarray) -> np.ndarray:
    """Row-wise z-normalisation (constant rows become all-zero)."""
    rows = np.asarray(rows, dtype=float)
    centred = rows - rows.mean(axis=1, keepdims=True)
    std = centred.std(axis=1, keepdims=True)
    return centred / np.where(std > 0, std, 1.0)


def mixture(rng: np.random.Generator, count: int, length: int) -> np.ndarray:
    """``count`` z-normalised walks, noisy sinusoids and step series."""
    kind = rng.integers(0, 3, size=count)
    t = np.arange(length, dtype=float)
    walks = np.cumsum(rng.standard_normal((count, length)), axis=1)
    freq = rng.uniform(1.0, 6.0, size=(count, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, 1))
    sines = np.sin(2.0 * np.pi * freq * t / length + phase)
    sines += 0.3 * rng.standard_normal((count, length))
    cuts = np.sort(rng.integers(1, length, size=(count, 4)), axis=1)
    levels = rng.standard_normal((count, 5))
    segment = (t[None, None, :] >= cuts[:, :, None]).sum(axis=1)
    steps = np.take_along_axis(levels, segment, axis=1)
    steps += 0.1 * rng.standard_normal((count, length))
    rows = np.where(kind[:, None] == 0, walks, np.where(kind[:, None] == 1, sines, steps))
    return znormalise(rows)


def collection(seed: int, count: int, length: int) -> np.ndarray:
    """The stored collection of a run."""
    return mixture(_stream(seed, _COLLECTION), count, length)


def noisy_copies(rng: np.random.Generator, data: np.ndarray, ids) -> np.ndarray:
    """Rows ``ids`` of ``data`` plus Gaussian noise — the query model."""
    rows = np.asarray(data, dtype=float)[np.asarray(ids, dtype=int)]
    return rows + QUERY_NOISE * rng.standard_normal(rows.shape)


class QueryStream:
    """An unbounded, seeded stream of distinct queries over ``data``.

    Each chunk walks one random permutation of the collection, so a base
    series repeats only after every series has been used, and every query
    carries fresh noise: no two queries are the same input.  Chunk ``c``
    comes from its own child stream, so query ``i`` does not depend on how
    many queries a run consumed.
    """

    def __init__(self, seed: int, data: np.ndarray, which: int = _QUERIES):
        self._seed = int(seed)
        self._which = which
        self._data = np.asarray(data, dtype=float)
        self._chunks: "list[np.ndarray]" = []

    def _chunk(self, index: int) -> np.ndarray:
        while len(self._chunks) <= index:
            rng = np.random.default_rng(
                np.random.SeedSequence([self._seed, self._which, len(self._chunks)])
            )
            self._chunks.append(noisy_copies(rng, self._data, rng.permutation(len(self._data))))
        return self._chunks[index]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Queries ``start .. stop-1`` as a matrix."""
        n = len(self._data)
        return np.vstack(
            [self._chunk(c) for c in range(start // n, -(-stop // n))]
        )[start - (start // n) * n: stop - (start // n) * n]


def queries(seed: int, data: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` queries of the run's query stream."""
    return QueryStream(seed, data).rows(0, count)


def watch_queries(seed: int, data: np.ndarray, count: int) -> np.ndarray:
    """Standing queries (a stream of their own, disjoint from ``queries``)."""
    return QueryStream(seed, data, _WATCHES).rows(0, count)


def read_queries(seed: int, data: np.ndarray) -> QueryStream:
    """The stream of queries for the interleaved reads of a mixed workload."""
    return QueryStream(seed, data, _READS)


class InsertStream:
    """An unbounded, seeded stream of series to insert.

    Even positions are noisy copies of the watched queries (round robin),
    so standing subscriptions see their frontiers change; odd positions are
    fresh mixture series.  Rows are produced in fixed-size chunks, each from
    its own child stream, so row ``i`` does not depend on how far a run got.
    """

    CHUNK = 256

    def __init__(self, seed: int, length: int, watched: np.ndarray):
        self._seed = int(seed)
        self._length = length
        self._watched = np.asarray(watched, dtype=float)
        self._chunks: "list[np.ndarray]" = []

    def _chunk(self, index: int) -> np.ndarray:
        while len(self._chunks) <= index:
            number = len(self._chunks)
            rng = np.random.default_rng(
                np.random.SeedSequence([self._seed, _INSERTS, number])
            )
            rows = mixture(rng, self.CHUNK, self._length)
            positions = number * self.CHUNK + np.arange(self.CHUNK)
            copy = positions % 2 == 0
            which = (positions[copy] // 2) % len(self._watched)
            rows[copy] = self._watched[which] + QUERY_NOISE * rng.standard_normal(
                (int(copy.sum()), self._length)
            )
            self._chunks.append(rows)
        return self._chunks[index]

    def row(self, i: int) -> np.ndarray:
        """The ``i``-th series of the stream."""
        return self._chunk(i // self.CHUNK)[i % self.CHUNK]

    def rows(self, count: int) -> np.ndarray:
        """The first ``count`` series of the stream, as a matrix."""
        if count == 0:
            return np.empty((0, self._length))
        return np.vstack([self._chunk(c) for c in range(-(-count // self.CHUNK))])[:count]
