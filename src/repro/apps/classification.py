"""k-NN classification on reduced representations (the paper's motivation).

GEMINI-style classification: the classifier retrieves the query's k nearest
neighbours through a :class:`repro.index.SeriesDatabase` (so retrieval cost
and pruning power reflect the chosen reduction method and index) and takes a
majority vote over their labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..data.labeled import LabeledDataset
from ..index.knn import SeriesDatabase
from ..kinds import IndexKind
from ..reduction.base import Reducer

__all__ = ["ClassificationReport", "KNNClassifier"]


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of classifying a query set."""

    accuracy: float
    mean_pruning_power: float
    predictions: np.ndarray


class KNNClassifier:
    """Majority-vote k-NN over an indexed, reduced time series collection.

    ``metric='euclidean'`` (default) retrieves through the reduced-space
    index, as the paper does; ``metric='dtw'`` follows the UCR convention —
    banded DTW filtered by the LB_Keogh lower bound over the raw training
    series (pruning power then counts DTW computations avoided).
    """

    def __init__(
        self,
        reducer: Reducer,
        k: int = 1,
        index: "Optional[IndexKind]" = IndexKind.DBCH,
        metric: str = "euclidean",
        band: "int | None" = None,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        if metric not in ("euclidean", "dtw"):
            raise ValueError(f"unknown metric: {metric!r}")
        self.k = int(k)
        self.metric = metric
        self.band = band
        self.database = SeriesDatabase(reducer, index=index)
        self._labels: "np.ndarray | None" = None

    def fit(self, data: np.ndarray, labels: np.ndarray) -> "KNNClassifier":
        """Index the training collection and remember its labels."""
        data = np.asarray(data, dtype=float)
        labels = np.asarray(labels)
        if len(labels) != len(data):
            raise ValueError("one label per training series is required")
        self.database.ingest(data)
        self._labels = labels
        return self

    def predict_one(self, query: np.ndarray) -> "tuple[int, float]":
        """Return ``(predicted label, pruning power of the retrieval)``."""
        if self._labels is None:
            raise RuntimeError("fit the classifier before predicting")
        if self.metric == "dtw":
            ids, pruning = self._dtw_neighbours(query)
        else:
            result = self.database.knn(query, self.k)
            ids, pruning = result.ids, result.pruning_power
        votes = Counter(int(self._labels[i]) for i in ids)
        return votes.most_common(1)[0][0], pruning

    def _dtw_neighbours(self, query: np.ndarray) -> "tuple[list, float]":
        """UCR-style 1-NN loop: LB_Keogh-ordered candidates, DTW verification."""
        import heapq

        from ..distance.dtw import dtw, dtw_envelope, lb_keogh

        query = np.asarray(query, dtype=float)
        data = self.database.data
        envelope = dtw_envelope(query, self.band)
        bounds = sorted(
            (lb_keogh(query, row, self.band, envelope), i) for i, row in enumerate(data)
        )
        best: "list[tuple[float, int]]" = []  # max-heap via negation
        verified = 0
        for bound, i in bounds:
            if len(best) == self.k and bound >= -best[0][0]:
                break
            true = dtw(query, data[i], self.band)
            verified += 1
            heapq.heappush(best, (-true, i))
            if len(best) > self.k:
                heapq.heappop(best)
        ranked = sorted((-d, i) for d, i in best)
        return [i for _, i in ranked], verified / len(data)

    def evaluate(self, dataset: LabeledDataset) -> ClassificationReport:
        """Fit on the train split and classify the query split."""
        self.fit(dataset.data, dataset.labels)
        predictions, prunings = [], []
        for query in dataset.queries:
            label, pruning = self.predict_one(query)
            predictions.append(label)
            prunings.append(pruning)
        predictions = np.asarray(predictions)
        return ClassificationReport(
            accuracy=float(np.mean(predictions == dataset.query_labels)),
            mean_pruning_power=float(np.mean(prunings)),
            predictions=predictions,
        )
