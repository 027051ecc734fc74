"""Extension — native iSAX tree vs R-tree/DBCH for symbolic retrieval.

The paper indexes SAX words through the generic R-tree; the iSAX lineage
(Camerra et al., cited as [3]) gives symbols their own index.  This bench
compares exactness and verification counts: iSAX's bounds are all true
lower bounds, so its k-NN is exact, while the SAX-over-R-tree/DBCH paths
inherit the trees' heuristic navigation.
"""

import numpy as np

from repro.bench.harness import ExperimentConfig
from repro.data import z_normalize
from repro.index import ISAXIndex, SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import SAX

from conftest import publish_table


def _run_isax_comparison(cfg, rows):
    for dataset in cfg.datasets():
        data = np.stack([z_normalize(row) for row in dataset.data])
        queries = np.stack([z_normalize(row) for row in dataset.queries])

        isax = ISAXIndex(n_segments=12, leaf_capacity=5)
        isax.ingest(data)
        databases = {}
        for kind in (IndexKind.RTREE, IndexKind.DBCH):
            db = SeriesDatabase(SAX(12), index=kind)
            db.ingest(data)
            databases[kind] = db

        for structure in ("isax", "rtree", "dbch"):
            accs, prunes = [], []
            for query in queries:
                if structure == "isax":
                    from repro.index import linear_scan

                    truth = linear_scan(data, query, 4)
                    result = isax.knn(query, 4)
                else:
                    db = databases[structure]
                    truth = db.ground_truth(query, 4)
                    result = db.knn(query, 4)
                accs.append(result.accuracy_against(truth))
                prunes.append(result.pruning_power)
            rows.append(
                {
                    "dataset": dataset.name,
                    "structure": structure,
                    "accuracy": float(np.mean(accs)),
                    "pruning_power": float(np.mean(prunes)),
                }
            )


def test_isax_vs_tree_indexes(benchmark, config, bench_report):
    cfg = ExperimentConfig(
        dataset_names=("Adiac", "ECG200"),
        length=min(config.length, 256),
        n_series=min(config.n_series, 24),
        n_queries=3,
    )
    rows = []
    with bench_report("isax_comparison", rows=rows):
        _run_isax_comparison(cfg, rows)
    publish_table("isax_comparison", "Extension — iSAX vs R-tree/DBCH over SAX", rows)

    # iSAX k-NN is exact by construction
    for row in rows:
        if row["structure"] == "isax":
            assert row["accuracy"] == 1.0
        assert 0.0 <= row["pruning_power"] <= 1.0

    data = np.stack(
        [z_normalize(r) for r in next(cfg.datasets()).data]
    )
    index = ISAXIndex(n_segments=12, leaf_capacity=5)
    index.ingest(data)
    benchmark(index.knn, data[0], 4)
