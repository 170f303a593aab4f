"""The graph store: out-of-core graphs in one SQLite file.

``open_backend("sqlite", path)`` opens it; the CLI's ``--backend
sqlite`` goes through it and ``--backend memory`` never opens a store.
One database file holds the graph database as an indexed table (schema
diagram in DESIGN.md §14):

* ``graphs`` — one sha256-stamped JSON blob per graph, ordered by an
  insertion ``seq`` so iteration matches the in-memory dict order
  byte for byte; decoded :class:`LabeledGraph` objects live in a bounded
  :class:`~repro.storage.lru.GraphLRU`, which is what lets a database
  far larger than the cache budget stream through mining;
* ``meta`` — the persisted ``generation`` counter every write bumps.

The row sha is the graph's content digest: the serving layer's fragment
index (:mod:`repro.serve.index`) stamps graphs with the same
``payload_sha(encode_graph(g))``, so :meth:`SQLiteGraphStore.digests`
tells drifted rows apart without decoding any.

Durability model: the connection runs in WAL mode; imports are single
transactions, so a crash leaves either the old state or the new state.
Every row carries the sha256 digest of the bytes it was written from,
so bytes damaged once stored fail the read's digest check; a digest
miss moves the bad row's bytes into a sibling ``<name>.corrupt/``
directory, voids the row in place (empty payload, empty sha — the insertion ``seq``
survives, so a healing re-import restores the original iteration
order), and raises :class:`~repro.resilience.errors.ArtifactCorrupt` —
the same quarantine discipline as :mod:`repro.resilience.integrity`,
applied per row.

``PRAGMA user_version`` carries the schema version: files written by a
newer schema are rejected with an error naming the version and the path.
"""

from __future__ import annotations

import atexit
import sqlite3
import threading
import weakref
from pathlib import Path

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from ..resilience.errors import ArtifactCorrupt
from .encoding import decode_graph, encode_graph, payload_sha
from .lru import GraphLRU

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS graphs(
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    gid INTEGER UNIQUE NOT NULL,
    vertices INTEGER NOT NULL,
    edges INTEGER NOT NULL,
    payload BLOB NOT NULL,
    sha TEXT NOT NULL);
"""

#: Backends opened and not yet closed; an atexit sweep closes leftovers
#: so short-lived processes (examples, scripts) cannot leak connections
#: even on abrupt exits.
_OPEN_BACKENDS: "weakref.WeakSet[SQLiteBackend]" = weakref.WeakSet()


def open_backend(
    backend: str,
    path: str | Path | None = None,
    *,
    cache_graphs: int | None = None,
) -> "SQLiteBackend":
    """Open the graph store at ``path``; ``backend`` must be ``sqlite``."""
    if backend != "sqlite":
        raise ValueError(
            f"unknown storage backend {backend!r} (expected 'sqlite')"
        )
    if path is None:
        raise ValueError("the sqlite backend requires a database path")
    return SQLiteBackend(path, cache_graphs=cache_graphs)


class SQLiteBackend:
    """WAL-mode SQLite storage engine (see module docs)."""

    def __init__(
        self, path: str | Path, *, cache_graphs: int | None = None
    ) -> None:
        self.path = Path(path)
        self.cache = GraphLRU(cache_graphs)
        self._lock = threading.RLock()
        self._closed = False
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        try:
            self._setup()
        except BaseException:
            self._conn.close()
            raise
        _OPEN_BACKENDS.add(self)

    def _setup(self) -> None:
        conn = self._conn
        found = conn.execute("PRAGMA user_version").fetchone()[0]
        if found > SCHEMA_VERSION:
            raise ArtifactCorrupt(
                f"{self.path}: storage schema version {found} is newer than "
                f"this library supports (up to {SCHEMA_VERSION}) — upgrade "
                "the library or re-export the database",
                path=self.path,
            )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        if found < SCHEMA_VERSION:
            conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute(self, sql: str, params: tuple = ()):
        with self._lock:
            return self._conn.execute(sql, params)

    def generation(self) -> int:
        """The persisted mutation counter (bumped by every write txn)."""
        row = self._execute(
            "SELECT value FROM meta WHERE key='generation'"
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def _bump_generation(self) -> int:
        value = self.generation() + 1
        self._execute(
            "INSERT INTO meta(key, value) VALUES('generation', ?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (str(value),),
        )
        return value

    def quarantine_row(self, gid: int, payload: bytes) -> Path:
        """Preserve a bad graph row's bytes in ``<name>.corrupt/`` and void it.

        Mirrors :func:`repro.resilience.integrity.quarantine`: evidence
        is kept, and the row's payload/sha are emptied in place — never
        deleted — so a recovery write reuses the key *and* the original
        insertion ``seq``, keeping iteration order stable across a
        quarantine-and-heal cycle.
        """
        pen = self.path.with_name(self.path.name + ".corrupt")
        pen.mkdir(parents=True, exist_ok=True)
        dest = pen / f"graphs-{gid}.bin"
        serial = 0
        while dest.exists():
            serial += 1
            dest = pen / f"graphs-{gid}.{serial}.bin"
        dest.write_bytes(payload)
        with self._lock:
            self._conn.execute(
                "UPDATE graphs SET payload=X'', sha='' WHERE gid=?", (gid,)
            )
            self._bump_generation()
        return dest

    def _corrupt(self, gid: int, payload: bytes, why: str) -> ArtifactCorrupt:
        exc = ArtifactCorrupt(
            f"{self.path}: graphs row {gid}: {why}", path=self.path
        )
        exc.quarantined = self.quarantine_row(gid, payload)
        return exc

    # ------------------------------------------------------------------
    # Graph facet
    # ------------------------------------------------------------------
    def database(self) -> GraphDatabase:
        """A lazily-decoding :class:`GraphDatabase` over the stored graphs.

        Writes through it (``add`` / ``replace``) land in the store.
        """
        return GraphDatabase(store=SQLiteGraphStore(self))

    def num_graphs(self) -> int:
        return self._execute("SELECT COUNT(*) FROM graphs").fetchone()[0]

    def graph_gids(self) -> list[int]:
        return [
            row[0]
            for row in self._execute(
                "SELECT gid FROM graphs ORDER BY seq"
            ).fetchall()
        ]

    def write_graph(self, gid: int, graph: LabeledGraph) -> bool:
        """Upsert one graph row; returns whether bytes were written.

        The sha is the digest of the payload it writes, so bytes damaged
        in the row later are caught by the next read's digest check.
        Unchanged rows are skipped entirely (checksum-compared upsert).
        """
        payload = encode_graph(graph)
        sha = payload_sha(payload)
        with self._lock:
            row = self._conn.execute(
                "SELECT sha FROM graphs WHERE gid=?", (gid,)
            ).fetchone()
            if row is not None and row[0] == sha:
                return False
            if row is None:
                self._conn.execute(
                    "INSERT INTO graphs(gid, vertices, edges, payload, sha)"
                    " VALUES(?,?,?,?,?)",
                    (gid, graph.num_vertices, graph.num_edges, payload, sha),
                )
            else:
                self._conn.execute(
                    "UPDATE graphs SET vertices=?, edges=?, payload=?, sha=?"
                    " WHERE gid=?",
                    (graph.num_vertices, graph.num_edges, payload, sha, gid),
                )
            self._bump_generation()
        self.cache.pop(gid)
        return True

    def read_graph(self, gid: int) -> LabeledGraph:
        """Decode one graph row, verifying its digest (LRU-backed)."""
        cached = self.cache.get(gid)
        if cached is not None:
            return cached
        row = self._execute(
            "SELECT payload, sha FROM graphs WHERE gid=?", (gid,)
        ).fetchone()
        if row is None:
            raise KeyError(gid)
        if row[1] == "":
            raise ArtifactCorrupt(
                f"{self.path}: graphs row {gid} was quarantined and not "
                "yet re-imported",
                path=self.path,
            )
        payload = bytes(row[0])
        if payload_sha(payload) != row[1]:
            raise self._corrupt(
                gid, payload, "sha256 mismatch — row bytes corrupt"
            )
        try:
            graph = decode_graph(payload)
        except (ValueError, KeyError, TypeError) as exc:
            raise self._corrupt(
                gid, payload, f"undecodable payload ({exc})"
            ) from exc
        self.cache.put(gid, graph)
        return graph

    def import_database(self, database: GraphDatabase) -> int:
        """Transactionally upsert every graph; returns rows written."""
        written = 0
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                for gid, graph in database:
                    if self.write_graph(gid, graph):
                        written += 1
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
            self._conn.execute("COMMIT")
        return written

    def checkpoint(self) -> None:
        """Flush the WAL into the main file."""
        self._execute("PRAGMA wal_checkpoint(TRUNCATE)")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the connection and the decode cache.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        _OPEN_BACKENDS.discard(self)
        self.cache.clear()
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """JSON-ready operational counters (cache, rows, generation)."""
        return {
            "backend": "sqlite",
            "path": str(self.path),
            "graphs": self.num_graphs(),
            "generation": self.generation(),
            "cache": self.cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"SQLiteBackend({str(self.path)!r}, "
            f"graphs={self.num_graphs()})"
        )


@atexit.register
def _close_open_backends() -> None:
    for backend in list(_OPEN_BACKENDS):
        backend.close()


# ----------------------------------------------------------------------
# The dict-protocol graph store GraphDatabase runs on
# ----------------------------------------------------------------------
class SQLiteGraphStore:
    """gid -> :class:`LabeledGraph` mapping over the ``graphs`` table.

    Speaks exactly the subset of the dict protocol
    :class:`~repro.graph.database.GraphDatabase` uses, so the database
    class needs no backend-specific branches.  Iteration order is the
    insertion (``seq``) order — the same contract a plain dict gives the
    in-memory path.
    """

    def __init__(self, backend: SQLiteBackend) -> None:
        self.backend = backend

    # -- dict protocol -------------------------------------------------
    def __len__(self) -> int:
        return self.backend.num_graphs()

    def __contains__(self, gid: int) -> bool:
        return (
            self.backend._execute(
                "SELECT 1 FROM graphs WHERE gid=?", (gid,)
            ).fetchone()
            is not None
        )

    def __getitem__(self, gid: int) -> LabeledGraph:
        return self.backend.read_graph(gid)

    def __setitem__(self, gid: int, graph: LabeledGraph) -> None:
        self.backend.write_graph(gid, graph)

    def __iter__(self):
        return iter(self.backend.graph_gids())

    def get(self, gid: int, default=None):
        try:
            return self[gid]
        except KeyError:
            return default

    def keys(self):
        return self.backend.graph_gids()

    def values(self):
        for gid in self.backend.graph_gids():
            yield self.backend.read_graph(gid)

    def items(self):
        for gid in self.backend.graph_gids():
            yield gid, self.backend.read_graph(gid)

    # -- storage-aware extensions --------------------------------------
    def state_token(self) -> tuple:
        """Changes whenever any row of the backing store changes."""
        return ("sqlite", str(self.backend.path), self.backend.generation())

    def digests(self) -> dict[int, str]:
        """gid -> row sha, read without decoding (see module docs).

        A quarantined row reads as ``''``, which matches no digest.
        """
        return dict(
            self.backend._execute("SELECT gid, sha FROM graphs").fetchall()
        )

    def total_edges(self) -> int:
        """SQL fast path for :meth:`GraphDatabase.total_edges`."""
        return self.backend._execute(
            "SELECT COALESCE(SUM(edges), 0) FROM graphs"
        ).fetchone()[0]

    def total_vertices(self) -> int:
        """SQL fast path for :meth:`GraphDatabase.total_vertices`."""
        return self.backend._execute(
            "SELECT COALESCE(SUM(vertices), 0) FROM graphs"
        ).fetchone()[0]

    def stats(self) -> dict:
        return self.backend.cache.stats()
