"""repro — reproduction of SAPLA (EDBT 2022).

Self Adaptive Piecewise Linear Approximation, lower-bounding distance
measures for adaptive-length representations, and the DBCH-tree index for
time series similarity search, together with every baseline the paper
evaluates against (APLA, APCA, PLA, PAA, PAALM, CHEBY, SAX), the R-tree /
GEMINI k-NN substrate, a synthetic UCR2018-like archive, and the task suite
the paper's introduction motivates.

The most-used entry points are re-exported here::

    from repro import SAPLA, SeriesDatabase, UCRLikeArchive
    from repro import IndexKind, DistanceMode, QueryEngine, QueryOptions
    from repro import DurabilityOptions, FsyncPolicy

Query access goes through the :mod:`repro.client` facade —
``connect(path_or_url_or_db)`` returns one typed client for the in-process
engine, a sharded home or a running ``repro serve`` endpoint.
"""

from .core import SAPLA, LinearSegmentation, Segment, StreamingSAPLA, sapla_transform
from .data import UCRLikeArchive
from .engine import BatchResult, ExecutionMode, QueryEngine, QueryOptions
from .index import SeriesDatabase
from .kinds import DistanceMode, IndexKind
from .lifecycle.wal import DurabilityOptions, FsyncPolicy

__version__ = "1.0.0"


__all__ = [
    "SAPLA",
    "StreamingSAPLA",
    "sapla_transform",
    "Segment",
    "LinearSegmentation",
    "SeriesDatabase",
    "UCRLikeArchive",
    "IndexKind",
    "DistanceMode",
    "DurabilityOptions",
    "FsyncPolicy",
    "QueryEngine",
    "QueryOptions",
    "BatchResult",
    "ExecutionMode",
    "__version__",
]
