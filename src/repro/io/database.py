"""Persistence for whole similarity databases.

One documented surface for both database flavours: ``database.save(path)``
persists a fitted :class:`repro.index.SeriesDatabase` *or*
:class:`repro.storage.DiskBackedDatabase` as a directory, and
:func:`open_database` reopens either — the directory's ``config.json``
records which flavour (``kind``) it holds.  An in-memory database stores its
raw data as ``data.npz``; a disk-backed database keeps its paged store file
next to the config instead.  Both store the representations as
``representations.json`` so loading re-indexes without re-reducing (tree
structures rebuild deterministically and cheaply relative to the reduction
pass they skip).
"""

from __future__ import annotations

import json
import pathlib
import shutil
from typing import Union

import numpy as np

from ..index.knn import SeriesDatabase
from ..kinds import DistanceMode, IndexKind
from ..reduction import REDUCERS
from .serialization import from_jsonable, to_jsonable

__all__ = ["open_database"]

PathLike = Union[str, pathlib.Path]

#: filename of the paged store inside a disk-backed database directory
STORE_FILENAME = "series.bin"


def _write_common(database, directory: pathlib.Path, config: dict) -> None:
    """Write the representations and config shared by both flavours.

    Entries are sorted by id and only *live* series are saved; the config
    records the total row count (tombstones included) and, when the two
    disagree, the surviving ids — so a save after deletes reopens with the
    same logical contents.
    """
    entries = sorted(database.entries, key=lambda e: e.series_id)
    payload = {"representations": [to_jsonable(e.representation) for e in entries]}
    (directory / "representations.json").write_text(json.dumps(payload))
    row_count = database._count
    config.update(
        {
            "reducer": database.reducer.name,
            "n_coefficients": database.reducer.n_coefficients,
            "index": database.index_kind,
            "distance_mode": database.suite.mode,
            "max_entries": database.max_entries,
            "min_entries": database.min_entries,
            "row_count": row_count,
        }
    )
    if len(entries) != row_count:
        config["live_ids"] = [e.series_id for e in entries]
    (directory / "config.json").write_text(json.dumps(config, indent=2))


def save_series_database(database: SeriesDatabase, directory: PathLike) -> None:
    """Persist a fitted in-memory database (raw data + representations + config).

    Prefer the method form ``database.save(directory)``.
    """
    if database.data is None:
        raise ValueError("cannot save a database before ingest")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(directory / "data.npz", data=np.asarray(database.data))
    _write_common(database, directory, {"kind": "memory"})
    database._home = directory


def save_disk_database(database, directory: PathLike) -> None:
    """Persist a fitted :class:`repro.storage.DiskBackedDatabase` directory.

    The paged store file is copied in as ``series.bin``; raw series keep
    living on pages after a reopen.  Prefer ``database.save(directory)``.
    """
    if database.store is None:
        raise ValueError("cannot save a database before ingest")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    store_path = directory / STORE_FILENAME
    if store_path.resolve() != database.store.path.resolve():
        shutil.copyfile(database.store.path, store_path)
    _write_common(
        database._inner,
        directory,
        {
            "kind": "disk",
            "page_size": database.store.page_size,
            "cache_pages": database.store.cache_pages,
        },
    )
    database._home = directory


def open_database(directory: PathLike, durability=None):
    """Reopen a database directory saved by ``database.save(directory)``.

    Returns a :class:`repro.index.SeriesDatabase` or a
    :class:`repro.storage.DiskBackedDatabase` according to the directory's
    recorded ``kind`` (directories written before the kind field default to
    the in-memory flavour).

    If the directory contains a write-ahead log, its committed records past
    the last checkpoint are replayed before the database is returned —
    inserts are re-transformed through the reducer and re-indexed, deletes
    re-applied — so a crash mid-ingest reopens to exactly the acknowledged
    state.  Passing a :class:`repro.lifecycle.DurabilityOptions` (or
    ``DurabilityOptions()`` by leaving a WAL in place) keeps the database
    durable: subsequent ``insert``/``delete`` calls append to the log.
    """
    directory = pathlib.Path(directory)
    config = json.loads((directory / "config.json").read_text())
    reducer = REDUCERS[config["reducer"]](n_coefficients=config["n_coefficients"])
    raw_index = config.get("index")
    index = None if raw_index is None else IndexKind(raw_index)
    raw_mode = config.get("distance_mode")
    try:
        mode = DistanceMode(raw_mode)
    except ValueError:
        mode = DistanceMode.PAR  # non-adaptive suites store 'aligned' etc.
    payload = json.loads((directory / "representations.json").read_text())
    representations = [from_jsonable(item) for item in payload["representations"]]
    live_ids = config.get("live_ids")
    row_count = config.get("row_count")
    if config.get("kind", "memory") == "disk":
        from ..storage.database import DiskBackedDatabase

        database = DiskBackedDatabase(
            reducer,
            directory / STORE_FILENAME,
            index=index,
            distance_mode=mode,
            page_size=config["page_size"],
            cache_pages=config["cache_pages"],
        )
        database.reopen(representations, live_ids=live_ids, row_count=row_count)
        base_count = row_count if row_count is not None else len(representations)
    else:
        database = SeriesDatabase(
            reducer,
            index=index,
            distance_mode=mode,
            max_entries=config["max_entries"],
            min_entries=config["min_entries"],
        )
        with np.load(directory / "data.npz", allow_pickle=False) as archive:
            data = archive["data"]
        database.ingest(data, representations=representations, live_ids=live_ids)
        base_count = len(data)
    database._home = directory
    from ..lifecycle.wal import WAL_FILENAME, DurabilityOptions, WriteAheadLog
    wal_path = directory / WAL_FILENAME
    had_wal = wal_path.exists()
    if had_wal:
        from ..lifecycle.recovery import recover_database

        recover_database(database, wal_path, base_count)
    wants_wal = durability.wal if durability is not None else had_wal
    if wants_wal:
        database.attach_wal(
            WriteAheadLog.open(wal_path, durability or DurabilityOptions())
        )
    return database
