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

from pathlib import Path

from ..graph.database import GraphDatabase


def payload_database(payload: dict, gids=None) -> GraphDatabase:
    """The database ``payload`` describes, optionally cut down to ``gids``."""
    spec = payload.get("sqlite")
    if spec is not None:
        from ..storage.backend import open_backend

        backend = open_backend(
            "sqlite",
            spec["path"],
            cache_graphs=spec.get("cache"),
            read_only=True,
        )
        return backend.database(
            gids=spec.get("gids") if gids is None else list(gids)
        )
    graphs = payload["graphs"]
    if gids is not None:
        wanted = set(gids)
        graphs = [(gid, graph) for gid, graph in graphs if gid in wanted]
    return GraphDatabase(graphs)


def sqlite_spec(
    database: GraphDatabase, spill_path: Path | None
) -> dict | None:
    """A ``sqlite`` payload spec for ``database``, or ``None``.

    A database already living in a SQLite backend is referenced in
    place; an in-memory one is spilled into the single file
    ``spill_path`` (checksum-upserted, so a re-run rewrites nothing) when
    a path is given.  Either way the parent never pickles a graph list.
    """
    store = getattr(database, "_graphs", None)
    spec = getattr(store, "payload_spec", None)
    if spec is not None:
        return spec()
    if spill_path is None:
        return None
    from ..storage.sqlite import SQLiteBackend

    spill_path.parent.mkdir(parents=True, exist_ok=True)
    backend = SQLiteBackend(spill_path)
    try:
        backend.import_database(database)
        backend.checkpoint()
    finally:
        backend.close()
    return {"path": str(spill_path.resolve()), "gids": None, "cache": None}
