"""Extension — k-NN classification (the paper's motivating workload).

1-NN classification over labeled synthetic datasets, comparing methods and
metrics: the Euclidean/GEMINI path through the DBCH-tree (the paper's
stack) and the UCR DTW + LB_Keogh path.
"""

import numpy as np

from repro.apps import KNNClassifier
from repro.data import load_labeled
from repro.kinds import IndexKind
from repro.reduction import APCA, PAA, SAPLAReducer

from conftest import publish_table

DATASETS = ("SwedishLeaf", "GunPoint")


def test_classification_across_methods(benchmark, config, bench_report):
    rows = []
    with bench_report("classification", rows=rows):
        for name in DATASETS:
            dataset = load_labeled(
                name, n_classes=3, n_per_class=10, n_queries_per_class=3,
                length=min(config.length, 256),
            )
            for reducer_cls in (SAPLAReducer, APCA, PAA):
                report = KNNClassifier(
                    reducer_cls(12), k=1, index=IndexKind.DBCH
                ).evaluate(dataset)
                rows.append(
                    {
                        "dataset": name,
                        "method": reducer_cls.name,
                        "metric": "euclidean",
                        "accuracy": report.accuracy,
                        "pruning_power": report.mean_pruning_power,
                    }
                )
            dtw_report = KNNClassifier(PAA(12), k=1, metric="dtw", band=8).evaluate(dataset)
            rows.append(
                {
                    "dataset": name,
                    "method": "raw",
                    "metric": "dtw+lb_keogh",
                    "accuracy": dtw_report.accuracy,
                    "pruning_power": dtw_report.mean_pruning_power,
                }
            )
    publish_table("classification", "Extension — 1-NN classification", rows)

    for row in rows:
        # synthetic classes are separable: every path must classify well
        assert row["accuracy"] >= 0.7, row
        assert 0.0 < row["pruning_power"] <= 1.0

    dataset = load_labeled(
        "SwedishLeaf", n_classes=2, n_per_class=8, n_queries_per_class=1,
        length=min(config.length, 256),
    )
    clf = KNNClassifier(SAPLAReducer(12), k=1).fit(dataset.data, dataset.labels)
    benchmark(clf.predict_one, dataset.queries[0])
