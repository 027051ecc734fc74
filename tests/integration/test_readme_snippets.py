"""The README's quickstart code must actually work as written."""

import numpy as np


def test_readme_quickstart():
    from repro import SAPLA

    series = np.sin(np.linspace(0, 12, 512)) + 0.1 * np.random.default_rng(0).normal(
        size=512
    )

    representation = SAPLA(n_coefficients=18).transform(series)
    assert representation.right_endpoints[-1] == 511
    approx = representation.reconstruct()
    assert approx.shape == series.shape

    from repro import IndexKind
    from repro.index import SeriesDatabase
    from repro.reduction import SAPLAReducer

    db = SeriesDatabase(SAPLAReducer(18), index=IndexKind.DBCH)
    db.ingest(
        np.stack(
            [
                series + np.random.default_rng(i).normal(scale=0.2, size=512)
                for i in range(20)  # README uses 100; 20 keeps the test quick
            ]
        )
    )
    result = db.knn(series, k=5)
    assert len(result.ids) == 5
    assert 0.0 < result.pruning_power <= 1.0
