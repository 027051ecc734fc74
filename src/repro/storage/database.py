"""A disk-backed similarity database: index in memory, raw series on pages.

The configuration the paper's GEMINI framing assumes: representations and
the index structure fit in memory; raw series live on disk and each
verification pays physical I/O.  Pruning power then *is* the fraction of
the collection's pages read per query.
"""

from __future__ import annotations

import pathlib
from typing import Optional, Union

import numpy as np

from ..index.entries import Entry
from ..index.knn import KNNResult, SeriesDatabase
from ..index.mbr import feature_vector
from ..kinds import DistanceMode, IndexKind
from ..reduction.base import Reducer
from .pages import PagedSeriesStore

__all__ = ["DiskBackedDatabase"]

PathLike = Union[str, pathlib.Path]


class DiskBackedDatabase:
    """GEMINI search with raw data behind a :class:`PagedSeriesStore`.

    Args:
        reducer: dimensionality reduction method.
        store_path: backing file for the raw pages.
        index: an :class:`repro.IndexKind` or ``None`` (see
            :class:`repro.index.SeriesDatabase`).
        distance_mode: a :class:`repro.DistanceMode`.
        page_size / cache_pages: storage knobs.
    """

    def __init__(
        self,
        reducer: Reducer,
        store_path: PathLike,
        index: "Optional[IndexKind]" = IndexKind.DBCH,
        distance_mode: DistanceMode = DistanceMode.PAR,
        page_size: int = 4096,
        cache_pages: int = 8,
    ):
        self._inner = SeriesDatabase(reducer, index=index, distance_mode=distance_mode)
        self._store_path = pathlib.Path(store_path)
        self._page_size = page_size
        self._cache_pages = cache_pages
        self.store: Optional[PagedSeriesStore] = None
        self._wal = None
        self._home = None

    # ------------------------------------------------------------------
    def ingest(self, data: np.ndarray) -> None:
        """Write raw series to pages and build the in-memory index."""
        data = np.asarray(data, dtype=float)
        self.store = PagedSeriesStore.write(
            self._store_path, data, page_size=self._page_size, cache_pages=self._cache_pages
        )
        self._inner.ingest(data)
        # raw data now lives on disk; reads go through the store
        self._inner.data = _StoreView(self.store)

    def _reindex(self, rows: np.ndarray, representations: list) -> None:
        """Rebuild the inner index over ``rows`` already written to pages.

        Compaction helper: the rows were just rewritten to the store, so
        the index is rebuilt from the surviving representations and raw
        reads are routed back through the (fresh) page file.
        """
        self._inner.ingest(rows, representations=representations)
        self._inner.data = _StoreView(self.store)
        self._inner._buf = None

    def reopen(
        self,
        representations: list,
        live_ids: "Optional[list]" = None,
        row_count: "Optional[int]" = None,
    ) -> None:
        """Attach an existing store file using persisted representations.

        Used by :func:`repro.io.open_database`: the index rebuilds purely
        from the stored representations — no page is read and nothing is
        re-reduced — and subsequent verifications read pages as usual.
        ``live_ids`` restricts the index to the series that survived
        deletion; ``row_count`` is accepted for interface symmetry with the
        saved config (the store header is authoritative for the row total,
        which may exceed it when a WAL tail is about to be replayed).
        """
        self.store = PagedSeriesStore.open(
            self._store_path, page_size=self._page_size, cache_pages=self._cache_pages
        )
        ids = list(range(len(representations))) if live_ids is None else [int(i) for i in live_ids]
        if len(ids) != len(representations):
            raise ValueError("one representation per live series is required")
        budget = getattr(self._inner.reducer, "n_segments", None)
        entries = [
            Entry(
                series_id=sid,
                representation=rep,
                feature=feature_vector(rep, budget),
            )
            for sid, rep in zip(ids, representations)
        ]
        self._inner._install(_StoreView(self.store), entries)

    def knn(self, query: np.ndarray, k: int) -> KNNResult:
        """k-NN where every candidate verification reads pages from disk."""
        if self.store is None:
            raise RuntimeError("ingest data before searching")
        return self._inner.knn(query, k)

    def knn_batch(self, queries: np.ndarray, options=None):
        """Batched k-NN over the paged store — see
        :meth:`repro.engine.QueryEngine.knn_batch`.

        Verification rows are gathered through the page cache, so batching
        changes CPU cost, not the I/O accounting; worker-pool fan-out is
        unavailable for paged data and degrades to in-process execution.
        """
        if self.store is None:
            raise RuntimeError("ingest data before searching")
        return self._inner.knn_batch(queries, options)

    def range_query(self, query: np.ndarray, radius: float) -> KNNResult:
        """Radius query over the paged store — see
        :meth:`repro.index.SeriesDatabase.range_query`; every verified
        candidate reads its page through the cache."""
        if self.store is None:
            raise RuntimeError("ingest data before searching")
        return self._inner.range_query(query, radius)

    def ground_truth(self, query: np.ndarray, k: int) -> KNNResult:
        """Exact answer via a full sequential scan (reads every page).

        The scan streams through the store view in blocks — the whole
        collection is charged as physical I/O but never materialised as one
        matrix.  Tombstoned rows are still read (they share pages with live
        ones) but never returned; the over-fetch is capped at the tombstone
        count, with a no-deletes fast path.
        """
        if self.store is None:
            raise RuntimeError("ingest data before searching")
        return self._inner._ground_truth_from(self._inner.data, query, k)

    # ------------------------------------------------------------------
    def insert(self, series: np.ndarray) -> int:
        """Append one series: WAL first, then its page, then the index."""
        if self.store is None:
            raise RuntimeError("ingest data before inserting")
        series = np.asarray(series, dtype=float)
        if series.ndim != 1 or series.shape[0] != self.store.length:
            raise ValueError(
                f"series length {series.shape} does not match stored {self.store.length}"
            )
        series_id = self._inner._count
        if self._wal is not None:
            self._wal.append_insert(series_id, series)
        self.store.put_row(series_id, series)
        self._inner._register(series_id, series)
        return series_id

    def insert_batch(self, data: np.ndarray) -> "list[int]":
        """Append many series with one batched reduction (see
        :meth:`repro.index.SeriesDatabase.insert_batch`): WAL records first,
        then the pages, then one ``transform_batch`` pass over the run."""
        if self.store is None:
            raise RuntimeError("ingest data before inserting")
        matrix = np.asarray(data, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("insert_batch expects a (count, n) array of series")
        if matrix.shape[0] == 0:
            return []
        if matrix.shape[1] != self.store.length:
            raise ValueError(
                f"series length {matrix.shape[1]} does not match stored {self.store.length}"
            )
        ids = list(range(self._inner._count, self._inner._count + matrix.shape[0]))
        if self._wal is not None:
            for series_id, row in zip(ids, matrix):
                self._wal.append_insert(series_id, row)
        for series_id, row in zip(ids, matrix):
            self.store.put_row(series_id, row)
        self._inner._register_batch(ids, matrix)
        return ids

    def delete(self, series_id: int) -> bool:
        """Tombstone one series; its page bytes are reclaimed by compaction."""
        series_id = int(series_id)
        if series_id not in self._inner._live_ids:
            return False
        if self._wal is not None:
            self._wal.append_delete(series_id)
        return self._inner._delete_unlogged(series_id)

    # -- lifecycle ------------------------------------------------------
    @property
    def entries(self):
        """Live index entries (delegates to the in-memory index)."""
        return self._inner.entries

    @property
    def generation(self) -> int:
        """Monotonic version counter — see :class:`repro.lifecycle.MutableDatabase`."""
        return self._inner.generation

    @property
    def wal(self):
        """The attached :class:`repro.lifecycle.WriteAheadLog`, or ``None``."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Route subsequent mutations through ``wal`` (durability on)."""
        self._wal = wal

    def snapshot(self):
        """Pin the current index state — see :meth:`repro.index.SeriesDatabase.snapshot`."""
        return self._inner.snapshot()

    def freeze(self):
        """Alias for :meth:`snapshot`."""
        return self._inner.snapshot()

    def _replay_insert(self, series_id: int, series: np.ndarray) -> None:
        """Recovery hook: rewrite the row's page bytes (healing torn writes)
        and re-register the series, without re-logging."""
        from ..lifecycle.recovery import RecoveryError

        if self.store is None:
            raise RecoveryError("cannot replay inserts into an unopened store")
        if series_id > len(self.store):
            raise RecoveryError(
                f"WAL insert for id {series_id} but the store holds {len(self.store)} rows"
            )
        self.store.put_row(series_id, np.asarray(series, dtype=float))
        self._inner._register(series_id, series)

    def _replay_insert_batch(self, records: "list[tuple]") -> None:
        """Recovery hook: rewrite each row's page, then batch-register the run."""
        from ..lifecycle.recovery import RecoveryError

        if not records:
            return
        if self.store is None:
            raise RecoveryError("cannot replay inserts into an unopened store")
        pending = [(int(sid), np.asarray(series, dtype=float)) for sid, series in records]
        length = len(self.store)  # simulate per-record growth for validation
        for series_id, _ in pending:
            if series_id > length:
                raise RecoveryError(
                    f"WAL insert for id {series_id} but the store holds {length} rows"
                )
            length = max(length, series_id + 1)
        for series_id, series in pending:
            self.store.put_row(series_id, series)
        self._inner._register_batch(
            [sid for sid, _ in pending], np.vstack([s for _, s in pending])
        )

    def _replay_delete(self, series_id: int) -> bool:
        """Recovery hook: re-apply one WAL delete (idempotent)."""
        return self._inner._delete_unlogged(series_id)

    def _flush_pending(self) -> None:
        self._inner._flush_pending()

    def save(self, directory: PathLike) -> None:
        """Persist this database as a directory (see :mod:`repro.io`)."""
        from ..io.database import save_disk_database

        save_disk_database(self, directory)

    # ------------------------------------------------------------------
    @property
    def io_stats(self):
        """Physical-I/O counters of the underlying store."""
        return self.store.stats if self.store is not None else None

    def reset_io(self) -> None:
        """Zero the I/O counters (call between queries to measure one)."""
        if self.store is not None:
            self.store.stats.reset()


class _StoreView:
    """Array-like adapter: ``view[i]`` reads series ``i`` through the store.

    Batched access goes through :meth:`gather`, which prefers the store's
    memory-mapped column block (one contiguous slice, physical I/O charged
    per spanned page) and falls back to the page-cache batch read.
    """

    def __init__(self, store: PagedSeriesStore):
        self._store = store

    def __getitem__(self, series_id: int) -> np.ndarray:
        return self._store.read(int(series_id))

    def __len__(self) -> int:
        return len(self._store)

    @property
    def shape(self) -> "tuple[int, int]":
        return (len(self._store), self._store.length)

    def gather(self, series_ids) -> np.ndarray:
        """Rows for ``series_ids`` as one ``(len, n)`` float64 matrix."""
        block = self._store.mapped_columns()
        if block is not None:
            return np.asarray(block.gather(series_ids), dtype=float)
        return self._store.get_rows(series_ids)

    def columns(self):
        """The store's mapped :class:`~repro.storage.columns.ColumnBlockStore`."""
        return self._store.mapped_columns()
