"""Multivariate similarity search with per-channel lower bounds.

For ``(channels, length)`` series the Euclidean distance is

    Dist(Q, C)^2 = sum_c Dist(Q_c, C_c)^2,

so any per-channel lower bound combines into a multivariate one:
``sqrt(sum_c lb_c^2) <= Dist``.  The database below filters candidates with
that combined bound and verifies survivors on the raw arrays — GEMINI lifted
to the multivariate case.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np

from ..distance.suite import QueryContext, make_suite
from ..index.knn import KNNResult
from ..kinds import DistanceMode
from .reduction import MultivariateReducer, MultivariateRepresentation

__all__ = ["MultivariateDatabase", "multivariate_euclidean"]


def multivariate_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two ``(channels, length)`` series."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"series shapes differ: {a.shape} vs {b.shape}")
    return float(np.sqrt(((a - b) ** 2).sum()))


class MultivariateDatabase:
    """Filter-and-refine k-NN over a multivariate collection.

    Args:
        reducer: a :class:`MultivariateReducer`.
        distance_mode: per-channel query-bound mode (see
            :func:`repro.distance.make_suite`); :attr:`repro.DistanceMode.LB`
            keeps the search exact for adaptive methods.
    """

    def __init__(
        self,
        reducer: MultivariateReducer,
        distance_mode: DistanceMode = DistanceMode.LB,
    ):
        self.reducer = reducer
        self.distance_mode = distance_mode
        self.data: Optional[np.ndarray] = None
        self.representations: "List[MultivariateRepresentation]" = []
        self._suites = None

    def ingest(self, data: np.ndarray) -> None:
        """Reduce and store every series of ``data`` (count, channels, n)."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 3:
            raise ValueError("ingest expects a (count, channels, n) array")
        self.data = data
        self.representations = [self.reducer.transform(series) for series in data]
        self._suites = [
            make_suite(self.reducer._reducer_for(c), self.distance_mode)
            for c in range(data.shape[1])
        ]

    def _combined_bound(
        self, contexts: "List[QueryContext]", representation: MultivariateRepresentation
    ) -> float:
        total = 0.0
        for suite, ctx, channel_rep in zip(self._suites, contexts, representation.channels):
            bound = suite.query_bound(ctx, channel_rep)
            total += bound * bound
        return float(np.sqrt(total))

    def knn(self, query: np.ndarray, k: int) -> KNNResult:
        """k-NN with combined per-channel bounds; exact under true bounds."""
        if self.data is None:
            raise RuntimeError("ingest data before searching")
        query = np.asarray(query, dtype=float)
        if query.shape != self.data.shape[1:]:
            raise ValueError(
                f"query shape {query.shape} does not match stored {self.data.shape[1:]}"
            )
        query_rep = self.reducer.transform(query)
        contexts = [
            QueryContext(series=query[c], representation=query_rep.channels[c])
            for c in range(query.shape[0])
        ]
        bounds = sorted(
            (self._combined_bound(contexts, rep), i)
            for i, rep in enumerate(self.representations)
        )
        best: "List[tuple[float, int]]" = []
        verified = 0
        for bound, i in bounds:
            if len(best) == k and bound >= -best[0][0]:
                break
            true = multivariate_euclidean(query, self.data[i])
            verified += 1
            heapq.heappush(best, (-true, i))
            if len(best) > k:
                heapq.heappop(best)
        ranked = sorted((-d, i) for d, i in best)
        return KNNResult(
            ids=[i for _, i in ranked],
            distances=[d for d, _ in ranked],
            n_verified=verified,
            n_total=len(self.representations),
        )

    def ground_truth(self, query: np.ndarray, k: int) -> KNNResult:
        """Exact k-NN by scanning every raw multivariate series."""
        distances = [multivariate_euclidean(query, row) for row in self.data]
        order = np.argsort(distances, kind="stable")[:k]
        return KNNResult(
            ids=[int(i) for i in order],
            distances=[float(distances[i]) for i in order],
            n_verified=len(self.data),
            n_total=len(self.data),
        )
