"""Extension — pruning power as physical disk I/O.

The paper reports pruning power as a proxy for disk accesses.  With the
paged storage substrate the proxy becomes measurable: this bench runs the
same queries against a disk-backed database and checks that the pages read
track the verification counts — and that a pruned search reads a small
fraction of the pages a full scan touches.
"""

import numpy as np

from repro.bench.harness import ExperimentConfig
from repro.kinds import IndexKind
from repro.reduction import PAA, SAPLAReducer
from repro.storage import DiskBackedDatabase

from conftest import publish_table


def test_pruning_is_disk_io(benchmark, config, tmp_path_factory, bench_report):
    cfg = ExperimentConfig(
        dataset_names=("Adiac",),
        length=min(config.length, 256),
        n_series=min(config.n_series, 24),
        n_queries=3,
    )
    dataset = next(cfg.datasets())
    tmp = tmp_path_factory.mktemp("paged")
    rows = []
    # capture the run so the .txt table gains a .report.json sibling with
    # the physical-I/O counters (the table itself stays byte-identical)
    with bench_report(
        "disk_io",
        dataset=dataset.name,
        methods=["SAPLA", "PAA"],
        index="dbch",
        page_size=1024,
        cache_pages=4,
    ):
        for reducer_cls in (SAPLAReducer, PAA):
            db = DiskBackedDatabase(
                reducer_cls(12), tmp / f"{reducer_cls.name}.bin", index=IndexKind.DBCH,
                page_size=1024, cache_pages=4,
            )
            db.ingest(dataset.data)
            pages_per_series = db.store.pages_per_series()
            full_scan_pages = len(dataset.data) * pages_per_series

            prunes, page_fracs = [], []
            for query in dataset.queries:
                db.reset_io()
                result = db.knn(query, 4)
                prunes.append(result.pruning_power)
                page_fracs.append(db.io_stats.total_accesses / full_scan_pages)
            rows.append(
                {
                    "method": reducer_cls.name,
                    "pruning_power": float(np.mean(prunes)),
                    "page_fraction": float(np.mean(page_fracs)),
                }
            )
    publish_table("disk_io", "Extension — pruning power vs physical page I/O", rows)

    for row in rows:
        # pages read track verifications: same order of magnitude, and a
        # pruned search never reads more than slightly above its share
        assert row["page_fraction"] <= row["pruning_power"] * 1.5 + 0.05
        assert row["page_fraction"] < 1.0

    db = DiskBackedDatabase(SAPLAReducer(12), tmp / "bench.bin", index=IndexKind.DBCH)
    db.ingest(dataset.data)
    benchmark(db.knn, dataset.queries[0], 4)
