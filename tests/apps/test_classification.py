"""Tests for k-NN classification over reduced representations."""

import numpy as np
import pytest

from repro.apps import KNNClassifier
from repro.data import load_labeled
from repro.kinds import IndexKind
from repro.reduction import PAA, SAPLAReducer


@pytest.fixture(scope="module")
def dataset():
    return load_labeled(
        "Adiac", n_classes=2, n_per_class=10, n_queries_per_class=3, length=128, noise=0.2
    )


class TestKNNClassifier:
    def test_validation(self):
        with pytest.raises(ValueError):
            KNNClassifier(SAPLAReducer(12), k=0)

    def test_predict_before_fit_rejected(self, dataset):
        clf = KNNClassifier(SAPLAReducer(12))
        with pytest.raises(RuntimeError):
            clf.predict_one(dataset.queries[0])

    def test_label_count_mismatch_rejected(self, dataset):
        clf = KNNClassifier(SAPLAReducer(12))
        with pytest.raises(ValueError):
            clf.fit(dataset.data, dataset.labels[:-1])

    def test_classifies_separable_data(self, dataset):
        report = KNNClassifier(SAPLAReducer(12), k=1).evaluate(dataset)
        assert report.accuracy >= 0.8
        assert 0.0 < report.mean_pruning_power <= 1.0
        assert report.predictions.shape == dataset.query_labels.shape

    @pytest.mark.parametrize("index", [IndexKind.DBCH, IndexKind.RTREE, None], ids=str)
    def test_all_index_kinds(self, dataset, index):
        report = KNNClassifier(PAA(12), k=3, index=index).evaluate(dataset)
        assert report.accuracy >= 0.5

    def test_training_point_classified_as_itself(self, dataset):
        clf = KNNClassifier(SAPLAReducer(12), k=1).fit(dataset.data, dataset.labels)
        label, _ = clf.predict_one(dataset.data[4])
        assert label == dataset.labels[4]

    def test_majority_vote_with_larger_k(self, dataset):
        report = KNNClassifier(SAPLAReducer(12), k=5).evaluate(dataset)
        assert report.accuracy >= 0.6
