"""The storage-engine interface and the in-memory reference backend.

A :class:`StorageBackend` holds graphs only: the graph database, exposed
as a store object speaking the dict protocol
:class:`~repro.graph.database.GraphDatabase` runs on, so the whole
mining/serving stack works unchanged over any backend.  Pattern sets and
catalog snapshots are files (:mod:`repro.mining.store`,
:mod:`repro.serve.catalog`) whichever backend holds the graphs.

:class:`MemoryBackend` is the extracted pre-storage behaviour: plain
dicts, everything resident, zero I/O — the default, and the differential
baseline the SQLite backend is tested against byte for byte.
:class:`~repro.storage.sqlite.SQLiteBackend` is the out-of-core
implementation.

``storage.read`` / ``storage.write`` are registered fault sites: the
chaos suite injects row-level failures and byte corruptions through
them; corruption is detected by per-row sha256 digests and surfaces as
:class:`~repro.resilience.errors.ArtifactCorrupt` with the bad row
quarantined (see :mod:`repro.storage.sqlite`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path

from ..graph.database import GraphDatabase
from ..resilience import faults

SITE_STORAGE_WRITE = faults.register_site(
    "storage.write", "storage-backend graph row write"
)
SITE_STORAGE_READ = faults.register_site(
    "storage.read", "storage-backend row read + sha256 verification"
)

BACKEND_NAMES = ("memory", "sqlite")


class StorageBackend(ABC):
    """Abstract storage engine behind graph databases."""

    #: Backend tag recorded in artifact headers (``memory``/``sqlite``).
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Graph database facet
    # ------------------------------------------------------------------
    @abstractmethod
    def database(self) -> GraphDatabase:
        """A :class:`GraphDatabase` view over the stored graphs.

        In-memory backends hand back resident graphs; disk backends hand
        back a lazily-decoding store with a bounded LRU of decoded
        graphs, so iteration streams instead of materializing.
        """

    @abstractmethod
    def import_database(self, database: GraphDatabase) -> int:
        """Upsert every graph of ``database`` into the store.

        Rows whose stored bytes already match are left untouched (an
        incremental, checksum-compared import).  Returns the number of
        rows actually written.
        """

    @abstractmethod
    def num_graphs(self) -> int:
        """Stored graph count (without decoding anything)."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release any resources (connections, caches).  Idempotent."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """JSON-ready operational counters (cache hits, ops, sizes)."""
        return {"backend": self.name}


class MemoryBackend(StorageBackend):
    """The original in-memory behaviour, behind the backend interface.

    Graphs live in a plain dict (exactly what ``GraphDatabase`` held
    before the storage engine existed).  Nothing survives the process.
    """

    name = "memory"

    def __init__(self, database: GraphDatabase | None = None) -> None:
        self._database = database if database is not None else GraphDatabase()

    # -- graphs --------------------------------------------------------
    def database(self) -> GraphDatabase:
        return self._database

    def import_database(self, database: GraphDatabase) -> int:
        written = 0
        for gid, graph in database:
            if gid in self._database:
                self._database.replace(gid, graph)
            else:
                self._database.add(gid, graph)
            written += 1
        return written

    def num_graphs(self) -> int:
        return len(self._database)

    def stats(self) -> dict:
        return {"backend": self.name, "graphs": len(self._database)}


def open_backend(
    backend: str,
    path: str | Path | None = None,
    *,
    cache_graphs: int | None = None,
    read_only: bool = False,
) -> StorageBackend:
    """Open a storage backend by name.

    ``memory`` ignores ``path``; ``sqlite`` requires one.  This is the
    single construction point the CLI and the runtime go through, so the
    flag surface stays in one place.
    """
    if backend == "memory":
        return MemoryBackend()
    if backend == "sqlite":
        if path is None:
            raise ValueError("the sqlite backend requires a database path")
        from .sqlite import SQLiteBackend

        return SQLiteBackend(
            path, cache_graphs=cache_graphs, read_only=read_only
        )
    raise ValueError(
        f"unknown storage backend {backend!r} (expected one of "
        f"{', '.join(BACKEND_NAMES)})"
    )
