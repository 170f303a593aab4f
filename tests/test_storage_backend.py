"""Unit tests for the SQLite storage backend (src/repro/storage).

The contract under test: a :class:`SQLiteBackend` behind
:class:`GraphDatabase` / :class:`PatternCatalog` is *observationally
identical* to the in-memory path — same iteration order, same mined
bytes, same query answers — while holding only a bounded number of
decoded graphs alive.  The differential suite
(test_storage_differential.py) pins the identical-output half; this file
covers the backend's own mechanics: round-trips, the LRU, generations,
quarantine-and-heal, and the row digests the fragment index reads.
"""

import importlib.util
import shutil
import sqlite3

import pytest

from repro.graph.database import GraphDatabase
from repro.mining.gspan import GSpanMiner
from repro.resilience.errors import ArtifactCorrupt, exit_code_for
from repro.serve.catalog import PatternCatalog, catalog_order
from repro.serve.engine import QueryEngine
from repro.serve.index import FragmentIndex
from repro.storage import (
    DEFAULT_CACHE_GRAPHS,
    GraphLRU,
    decode_graph,
    encode_graph,
    open_backend,
    payload_sha,
)
from repro.storage.sqlite import SCHEMA_VERSION, SQLiteBackend

from .conftest import make_graph, random_database, triangle


@pytest.fixture
def backend(tmp_path):
    with open_backend("sqlite", tmp_path / "store.db") as b:
        yield b


def filled(backend, seed=11, num_graphs=8, n=6):
    db = random_database(seed=seed, num_graphs=num_graphs, n=n)
    backend.import_database(db)
    return db


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
class TestOpenBackend:
    def test_names(self):
        """The seam, the memory backend, the name list and the worker
        payload module left with no alias."""
        import repro.storage

        for name in ("BACKEND_NAMES", "MemoryBackend", "StorageBackend"):
            assert not hasattr(repro.storage, name)
        for module in ("repro.storage.backend", "repro.runtime.payload"):
            assert importlib.util.find_spec(module) is None

    def test_memory_default(self, tmp_path):
        """``--backend memory`` keeps the parse resident and opens no
        store: ``open_backend`` opens the SQLite store only."""
        with open_backend("sqlite", tmp_path / "x.db") as b:
            assert isinstance(b, SQLiteBackend)
        with pytest.raises(ValueError, match="memory"):
            open_backend("memory", tmp_path / "y.db")

    def test_read_only_is_gone(self, tmp_path):
        with pytest.raises(TypeError, match="read_only"):
            open_backend("sqlite", tmp_path / "x.db", read_only=True)
        with pytest.raises(TypeError, match="read_only"):
            SQLiteBackend(tmp_path / "x.db", read_only=True)

    def test_sqlite_requires_path(self):
        with pytest.raises(ValueError, match="path"):
            open_backend("sqlite")

    def test_unknown_backend(self, tmp_path):
        with pytest.raises(ValueError, match="nosuch"):
            open_backend("nosuch", tmp_path / "x.db")


# ----------------------------------------------------------------------
# Graph round-trips
# ----------------------------------------------------------------------
class TestGraphRoundTrip:
    def test_encode_decode_is_identity(self):
        g = make_graph([0, 1, 2], [(0, 1, 5), (1, 2, 3), (0, 2, 1)])
        h = decode_graph(encode_graph(g))
        assert h.vertex_labels() == g.vertex_labels()
        for v in g.vertices():
            assert list(h.neighbors(v)) == list(g.neighbors(v))
        # encode(decode(x)) is a fixed point — the incremental-upsert
        # sha comparison depends on it.
        assert encode_graph(h) == encode_graph(g)

    def test_decoded_version_matches_fresh_construction(self):
        g = triangle()
        h = decode_graph(encode_graph(g))
        assert h.version == g.num_vertices + g.num_edges

    def test_import_and_read_back(self, backend):
        db = filled(backend)
        view = backend.database()
        assert view.gids() == db.gids()
        assert len(view) == len(db)
        assert view.total_edges() == db.total_edges()
        assert view.total_vertices() == db.total_vertices()
        for gid, g in db:
            h = view[gid]
            assert h.vertex_labels() == g.vertex_labels()
            for v in g.vertices():
                assert list(h.neighbors(v)) == list(g.neighbors(v))

    def test_reimport_writes_nothing(self, backend):
        db = filled(backend)
        assert backend.import_database(db) == 0

    def test_changed_graph_rewrites_only_that_row(self, backend):
        db = filled(backend)
        g0 = db[0].copy()
        g0.set_vertex_label(0, 9)
        db.replace(0, g0)
        assert backend.import_database(db) == 1

    def test_rewrite_preserves_iteration_order(self, backend):
        db = filled(backend)
        g0 = db[0].copy()
        g0.set_vertex_label(0, 9)
        backend.write_graph(0, g0)
        assert backend.database().gids() == db.gids()

    def test_missing_gid_raises_keyerror(self, backend):
        filled(backend)
        with pytest.raises(KeyError):
            backend.database()[999]

    def test_string_labels_round_trip(self, backend):
        g = make_graph(["C", "O"], [(0, 1, "double")])
        backend.write_graph(0, g)
        h = backend.database()[0]
        assert h.vertex_labels() == ["C", "O"]
        assert h.edge_label(0, 1) == "double"


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
class TestGraphLRU:
    def test_capacity_bound(self):
        lru = GraphLRU(2)
        graphs = [triangle((i, i, i)) for i in range(4)]
        for i, g in enumerate(graphs):
            lru.put(i, g)
        assert len(lru) == 2
        assert lru.get(0) is None and lru.get(3) is graphs[3]
        stats = lru.stats()
        assert stats["evictions"] == 2
        assert stats["max_cached"] == 2

    def test_get_refreshes_recency(self):
        lru = GraphLRU(2)
        a, b, c = (triangle((i, i, i)) for i in range(3))
        lru.put(0, a)
        lru.put(1, b)
        assert lru.get(0) is a  # 0 is now most recent
        lru.put(2, c)  # evicts 1
        assert lru.get(1) is None and lru.get(0) is a

    def test_max_live_counts_external_references(self):
        lru = GraphLRU(1)
        keep = [triangle((i, i, i)) for i in range(3)]
        for i, g in enumerate(keep):
            lru.put(i, g)
        # All three stay alive through our list even though only one is
        # cached: max_live is the honest memory high-water.
        assert lru.stats()["max_live"] == 3
        assert lru.stats()["max_cached"] == 1

    def test_default_capacity(self, tmp_path):
        with open_backend("sqlite", tmp_path / "d.db") as b:
            assert b.cache.capacity == DEFAULT_CACHE_GRAPHS

    def test_backend_cache_hits(self, backend):
        filled(backend)
        view = backend.database()
        view[0]
        before = backend.cache.stats()["hits"]
        view[0]
        assert backend.cache.stats()["hits"] == before + 1


# ----------------------------------------------------------------------
# Generations and state tokens
# ----------------------------------------------------------------------
class TestGeneration:
    def test_every_write_txn_bumps(self, backend):
        db = filled(backend)
        g = backend.generation()
        backend.write_graph(0, db[1])
        assert backend.generation() == g + 1

    def test_noop_write_does_not_bump(self, backend):
        db = filled(backend)
        g = backend.generation()
        backend.write_graph(0, db[0])  # identical bytes: skipped
        assert backend.generation() == g

    def test_state_token_changes_on_write(self, backend):
        db = filled(backend)
        view = backend.database()
        t0 = view.state_token()
        assert t0[0] == "sqlite"
        backend.write_graph(0, db[1])
        assert view.state_token() != t0

    def test_memory_database_has_no_token(self):
        assert GraphDatabase().state_token() is None


# ----------------------------------------------------------------------
# Integrity: schema version, corruption, quarantine, healing
# ----------------------------------------------------------------------
class TestIntegrity:
    def test_newer_schema_rejected_naming_path_and_version(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 7}")
        conn.close()
        with pytest.raises(
            ArtifactCorrupt, match=str(SCHEMA_VERSION + 7)
        ) as info:
            SQLiteBackend(path)
        assert str(path) in str(info.value)

    def test_corrupt_row_quarantined_and_healed(self, backend, tmp_path):
        db = filled(backend)
        # Flip the stored bytes behind the backend's back.
        backend._conn.execute(
            "UPDATE graphs SET payload=? WHERE gid=3", (b"garbage",)
        )
        with pytest.raises(ArtifactCorrupt) as info:
            backend.database()[3]
        assert exit_code_for(info.value) == 3
        pen = tmp_path / "store.db.corrupt"
        assert info.value.quarantined.exists()
        assert info.value.quarantined.parent == pen
        assert info.value.quarantined.read_bytes() == b"garbage"
        # The row is voided: reads keep failing typed, never garbage.
        with pytest.raises(ArtifactCorrupt):
            backend.database()[3]
        # Healing re-import restores the row at its original position.
        assert backend.import_database(db) == 1
        assert backend.database().gids() == db.gids()
        assert (
            backend.database()[3].vertex_labels() == db[3].vertex_labels()
        )

    def test_undecodable_valid_sha_row_quarantined(self, backend):
        filled(backend)
        # Bytes whose sha matches but whose JSON is not a graph record.
        bad = b'{"not": "a graph"}'
        backend._conn.execute(
            "UPDATE graphs SET payload=?, sha=? WHERE gid=1",
            (bad, payload_sha(bad)),
        )
        with pytest.raises(ArtifactCorrupt, match="undecodable"):
            backend.database()[1]

    def test_close_is_idempotent(self, tmp_path):
        b = open_backend("sqlite", tmp_path / "c.db")
        b.close()
        b.close()


# ----------------------------------------------------------------------
# Catalog snapshots over a stored database: the one directory format
# ----------------------------------------------------------------------
def publish(tmp_path, backend, meta=None):
    view = backend.database()
    patterns = GSpanMiner().mine(view, 3)
    catalog = PatternCatalog(tmp_path / "catalog")
    catalog.publish(patterns, meta=dict(meta or {}), database=view)
    return catalog, catalog_order(patterns)


class TestSnapshots:
    def test_save_load_round_trip(self, tmp_path, backend):
        filled(backend)
        catalog, ordered = publish(tmp_path, backend, meta={"note": "x"})
        snap = catalog.load()
        assert snap.version == 1
        assert snap.meta["note"] == "x"
        assert len(snap.entries) == len(ordered)
        for pid, want in enumerate(ordered):
            entry = snap.entries[pid]
            assert entry.support == want.support
            assert entry.size == want.size
            assert entry.key == want.key
            assert entry.tids == want.tids

    def test_missing_snapshot(self, tmp_path, backend):
        filled(backend)
        catalog, _ = publish(tmp_path, backend)
        shutil.rmtree(tmp_path / "catalog" / "snapshot-000001")
        with pytest.raises(FileNotFoundError):
            catalog.load(fallback=False)

    def test_snapshot_versions_and_delete(self, tmp_path, backend):
        filled(backend)
        catalog, _ = publish(tmp_path, backend)
        publish(tmp_path, backend)
        assert catalog.versions_on_disk() == [1, 2]
        assert catalog.prune(keep=1) == [1]
        assert catalog.versions_on_disk() == [2]
        assert catalog.load().version == 2

    def test_incremental_rebuilds_only_drifted_rows(self, tmp_path, backend):
        db = filled(backend)
        catalog, _ = publish(tmp_path, backend)
        g0 = db[0].copy()
        g0.set_vertex_label(0, 9)
        backend.write_graph(0, g0)
        view = backend.database()
        assert catalog.load().index.stale_gids(view) == {0}
        publish(tmp_path, backend)
        assert catalog.load().index.stale_gids(view) == set()

    def test_top_k_matches_eager_order(self, tmp_path, backend):
        filled(backend)
        catalog, ordered = publish(tmp_path, backend)
        engine = QueryEngine(catalog.load(), backend.database())
        for by, keyfn in (
            ("support", lambda i: (-ordered[i].support, i)),
            ("size", lambda i: (-ordered[i].size, i)),
        ):
            want = sorted(range(len(ordered)), key=keyfn)
            for k in (0, 1, 3, len(ordered) + 5):
                got = [e.pid for e in engine.top_k(k, by=by)]
                assert got == want[:k], (by, k)
        with pytest.raises(ValueError):
            engine.top_k(3, by="color")

    def test_corrupt_pattern_row_is_typed(self, tmp_path, backend):
        filled(backend)
        catalog, _ = publish(tmp_path, backend)
        path = tmp_path / "catalog" / "snapshot-000001" / "patterns.jsonl"
        path.write_bytes(path.read_bytes().replace(b'"support"', b'"sUpport"', 1))
        with pytest.raises(ArtifactCorrupt) as info:
            catalog.load(fallback=False)
        assert exit_code_for(info.value) == 3


# ----------------------------------------------------------------------
# The fragment index over a stored database: row shas are its stamps
# ----------------------------------------------------------------------
class TestIndexOverStore:
    def test_index_over_store_equals_index_over_memory(self, backend):
        db = filled(backend)
        patterns = [p.graph for p in catalog_order(GSpanMiner().mine(db, 3))]
        assert FragmentIndex.build(
            patterns, backend.database()
        ) == FragmentIndex.build(patterns, db)

    def test_stale_gids_read_row_digests_without_decoding(self, backend):
        db = filled(backend)
        index = FragmentIndex.build([triangle()], db)
        view = backend.database()
        misses = backend.cache.stats()["misses"]
        assert index.stale_gids(view) == set()
        g0 = db[0].copy()
        g0.set_vertex_label(0, 9)
        backend.write_graph(0, g0)
        assert index.stale_gids(view) == {0}
        assert backend.cache.stats()["misses"] == misses

    def test_foreign_database_stale_by_content(self, backend):
        """An index built over the store judges any other database by
        content: an equal copy is fresh, a relabelled graph is stale."""
        db = filled(backend)
        index = FragmentIndex.build([triangle()], backend.database())
        foreign = db.copy(deep=True)
        assert index.stale_gids(foreign) == set()
        foreign[2].set_vertex_label(0, 9)
        assert index.stale_gids(foreign) == {2}

