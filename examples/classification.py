"""1-NN time series classification through reduced representations.

The paper's motivating workload: classify unseen series by their nearest
neighbour, retrieved through a reduction method + index instead of raw
linear scans.  Compares SAPLA, APCA and PAA on accuracy and on how much of
the raw collection each retrieval had to touch.

Run with ``python examples/classification.py``.
"""

from repro.apps import KNNClassifier
from repro.data import load_labeled
from repro.kinds import IndexKind
from repro.reduction import APCA, PAA, SAPLAReducer


def main():
    dataset = load_labeled(
        "SwedishLeaf", n_classes=4, n_per_class=15, n_queries_per_class=5, length=256
    )
    print(
        f"Dataset {dataset.name} ({dataset.family}): {dataset.n_classes} classes, "
        f"{dataset.data.shape[0]} train / {dataset.queries.shape[0]} test, "
        f"length {dataset.length}\n"
    )

    header = f"{'method':<8} {'k':>3} {'accuracy':>9} {'mean pruning':>13}"
    print(header)
    print("-" * len(header))
    for reducer_cls in (SAPLAReducer, APCA, PAA):
        for k in (1, 3):
            report = KNNClassifier(
                reducer_cls(12), k=k, index=IndexKind.DBCH
            ).evaluate(dataset)
            print(
                f"{reducer_cls.name:<8} {k:>3} {report.accuracy:>9.2f} "
                f"{report.mean_pruning_power:>13.2f}"
            )
    print("\npruning = fraction of raw training series each query had to touch")


if __name__ == "__main__":
    main()
