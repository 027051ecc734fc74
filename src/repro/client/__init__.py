"""The one query facade: ``connect(anything) -> Client``.

:func:`connect` resolves *any* target — a database object, a saved
database directory, a sharded home, or a ``tcp://host:port`` URL — into a
:class:`Client` whose typed
:class:`KnnRequest`/:class:`RangeRequest`/:class:`QueryResult` vocabulary
is shared verbatim by the in-process engine, the
:class:`repro.serving.ShardedEngine` and the TCP server.

    from repro.client import connect, KnnRequest

    with connect("runs/my_database") as client:       # or tcp://host:port
        results = client.knn(KnnRequest(queries, k=5))
"""

from __future__ import annotations

import pathlib
from typing import Union

from .api import KnnRequest, QueryResult, RangeRequest
from .local import Client, LocalClient
from .subscription import Subscription
from .tcp import ServerError, TcpClient

__all__ = [
    "Client",
    "KnnRequest",
    "LocalClient",
    "QueryResult",
    "RangeRequest",
    "ServerError",
    "Subscription",
    "TcpClient",
    "connect",
]


def _parse_tcp_url(url: str) -> "tuple[str, int]":
    """Split ``tcp://host:port`` into its parts (IPv6 hosts in brackets)."""
    rest = url[len("tcp://"):]
    host, sep, port = rest.rpartition(":")
    if not sep or not port.isdigit() or not host:
        raise ValueError(f"expected tcp://host:port, got {url!r}")
    return host.strip("[]"), int(port)


def connect(target: "Union[str, pathlib.Path, object]", durability=None) -> Client:
    """Resolve ``target`` into a connected :class:`Client`.

    Accepts, in resolution order:

    * a ``tcp://host:port`` URL — a :class:`TcpClient` for a running
      ``repro serve`` endpoint;
    * a directory containing ``sharding.json`` — the sharded home is opened
      (per-shard WAL recovery included) behind a :class:`LocalClient`;
    * a directory containing ``config.json`` — a single database directory,
      opened via :func:`repro.io.open_database`;
    * any object with the engine surface (``knn_batch``/``range_query``) —
      served in process as-is.

    ``durability`` (a :class:`repro.lifecycle.DurabilityOptions`) is
    forwarded when a path is opened.  Clients opened from a path own their
    backend: ``close()`` tears it down (WALs, pools); object targets stay
    caller-owned.
    """
    if isinstance(target, (str, pathlib.Path)):
        text = str(target)
        if text.startswith("tcp://"):
            host, port = _parse_tcp_url(text)
            return TcpClient(host, port)
        path = pathlib.Path(text)
        from ..serving.sharding import MANIFEST_FILENAME, ShardedEngine

        if (path / MANIFEST_FILENAME).exists():
            return LocalClient(ShardedEngine.open(path, durability=durability), owns=True)
        if (path / "config.json").exists():
            from ..io.database import open_database

            return LocalClient(open_database(path, durability=durability), owns=True)
        raise ValueError(
            f"{path} is neither a saved database directory (config.json) "
            "nor a sharded home (sharding.json)"
        )
    if hasattr(target, "knn_batch"):
        return LocalClient(target)
    raise TypeError(
        "connect() accepts a tcp:// URL, a database directory, a sharded home, "
        f"or a database/engine object — got {type(target).__name__}"
    )
