"""Similarity search over a UCR-like dataset with the DBCH-tree.

Builds three search paths over the same collection — linear scan, R-tree
with APCA-style MBRs, and the DBCH-tree with Dist_PAR — and compares their
answers, pruning power, and CPU time for k-NN queries.

Run with ``python examples/similarity_search.py``.
"""

import time

from repro.data import UCRLikeArchive
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer


def main():
    archive = UCRLikeArchive(length=256, n_series=80, n_queries=5)
    dataset = archive.load("ECG200")
    print(f"Dataset {dataset.name} (family {dataset.family}): "
          f"{dataset.data.shape[0]} series of length {dataset.length}\n")

    k = 8
    databases = {}
    for index_kind in (IndexKind.RTREE, IndexKind.DBCH):
        db = SeriesDatabase(SAPLAReducer(12), index=index_kind)
        started = time.process_time()
        db.ingest(dataset.data)
        build = time.process_time() - started
        counts = db.tree.node_counts()
        print(
            f"{index_kind:>5}: built in {build * 1e3:.1f} ms CPU  "
            f"({counts['total']} nodes, height {db.tree.height})"
        )
        databases[index_kind] = db
    print()

    header = f"{'query':>5} {'index':>6} {'pruning':>8} {'accuracy':>9} {'cpu ms':>8}  neighbours"
    print(header)
    print("-" * len(header))
    for qi, query in enumerate(dataset.queries):
        truth = databases["dbch"].ground_truth(query, k)
        for index_kind, db in databases.items():
            started = time.process_time()
            result = db.knn(query, k)
            elapsed = (time.process_time() - started) * 1e3
            print(
                f"{qi:>5} {index_kind:>6} {result.pruning_power:>8.2f} "
                f"{result.accuracy_against(truth):>9.2f} {elapsed:>8.2f}  "
                f"{result.ids[:5]}..."
            )
    print("\npruning = fraction of raw series verified (lower is better);")
    print("accuracy = overlap with the exact k-NN set (Eq. 15).")


if __name__ == "__main__":
    main()
