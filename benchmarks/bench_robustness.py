"""Extension — retrieval robustness under query perturbations.

Sweeps the perturbation workloads (noise, dropout, warp) across severities
and measures DBCH + SAPLA retrieval accuracy against ground truth on the
*perturbed* query (how well the reduced-space search tracks the true
neighbours as queries degrade).
"""

import numpy as np

from repro.bench.harness import ExperimentConfig
from repro.data import query_workload
from repro.index import SeriesDatabase
from repro.kinds import IndexKind
from repro.reduction import SAPLAReducer

from conftest import publish_table

KINDS = ("noise", "dropout", "warp")
SEVERITIES = (0.0, 0.2, 0.5)


def test_robustness_under_perturbations(benchmark, config, bench_report):
    cfg = ExperimentConfig(
        dataset_names=("Adiac",),
        length=min(config.length, 256),
        n_series=min(config.n_series, 24),
        n_queries=3,
    )
    dataset = next(cfg.datasets())
    db = SeriesDatabase(SAPLAReducer(12), index=IndexKind.DBCH)
    db.ingest(dataset.data)

    rows = []
    with bench_report("robustness", dataset=dataset.name, rows=rows):
        for kind in KINDS:
            for severity in SEVERITIES:
                queries = query_workload(dataset.queries, kind, severity, seed=3)
                accs, prunes = [], []
                for query in queries:
                    truth = db.ground_truth(query, 4)
                    result = db.knn(query, 4)
                    accs.append(result.accuracy_against(truth))
                    prunes.append(result.pruning_power)
                rows.append(
                    {
                        "perturbation": kind,
                        "severity": severity,
                        "accuracy": float(np.mean(accs)),
                        "pruning_power": float(np.mean(prunes)),
                    }
                )
    publish_table("robustness", "Extension — retrieval under perturbed queries", rows)

    by = {(r["perturbation"], r["severity"]): r for r in rows}
    # the clean workload is never worse than the most severe one
    for kind in KINDS:
        assert by[(kind, 0.0)]["accuracy"] >= by[(kind, 0.5)]["accuracy"] - 0.25
    for row in rows:
        assert 0.0 <= row["accuracy"] <= 1.0
        assert 0.0 <= row["pruning_power"] <= 1.0

    benchmark(db.knn, dataset.queries[0], 4)
