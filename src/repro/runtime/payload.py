"""Wire forms of a graph database shipped to a worker process.

A worker payload describes its database in one of two ways:

``graphs``
    the ``(gid, graph)`` list the worker mines — inherited, never
    pickled, under the ``fork`` start method, and pickled once per
    attempt under ``forkserver`` / ``spawn``;
``sqlite``
    a storage-backend reference ``{"path", "gids", "cache"}`` — the
    worker opens its **own read-only connection** (never the parent's,
    which does not survive a fork) and streams rows through a bounded
    decode cache, so a database larger than RAM never materializes in
    the worker either.

Resources are held for the worker process's lifetime (one attempt per
process; the OS reclaims them on exit, and the storage layer's atexit
sweep closes connections).
"""

from __future__ import annotations

from ..graph.database import GraphDatabase


def payload_database(payload: dict) -> GraphDatabase:
    """The database ``payload`` describes."""
    spec = payload.get("sqlite")
    if spec is None:
        return GraphDatabase(payload["graphs"])
    from ..storage.backend import open_backend

    backend = open_backend(
        "sqlite", spec["path"], cache_graphs=spec.get("cache"), read_only=True
    )
    return backend.database(gids=spec.get("gids"))


def sqlite_spec(database: GraphDatabase) -> dict | None:
    """A ``sqlite`` payload spec for ``database``, or ``None``.

    A database that lives in a SQLite backend is referenced in place, so
    the parent never pickles its graphs; an in-memory one has no spec.
    """
    spec = getattr(getattr(database, "_graphs", None), "payload_spec", None)
    return None if spec is None else spec()
