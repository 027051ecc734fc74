"""Persistence: JSON codecs for representations, npz for datasets, and
directory-based round trips for whole similarity databases.

The database surface is ``database.save(directory)`` plus
:func:`open_database`."""

from .database import open_database
from .serialization import (
    from_jsonable,
    load_dataset,
    load_representations,
    save_dataset,
    save_representations,
    to_jsonable,
)

__all__ = [
    "to_jsonable",
    "from_jsonable",
    "save_representations",
    "load_representations",
    "save_dataset",
    "load_dataset",
    "open_database",
]
