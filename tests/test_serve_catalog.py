"""Tests for the versioned pattern catalog (repro.serve.catalog)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import query
from repro.graph.database import GraphDatabase
from repro.graph.io import write_database
from repro.mining.base import Pattern, PatternSet
from repro.mining.gspan import GSpanMiner
from repro.resilience import integrity
from repro.resilience.errors import ArtifactRetired
from repro.serve.catalog import (
    CatalogSnapshot,
    PatternCatalog,
    catalog_order,
)
from repro.serve.index import FragmentIndex

from .conftest import make_graph, path_graph, random_database, triangle


def mined(seed=5100, num_graphs=8, min_support=3):
    db = random_database(seed=seed, num_graphs=num_graphs)
    return db, GSpanMiner().mine(db, min_support)


class TestCatalogOrder:
    def test_order_is_deterministic(self):
        _, patterns = mined()
        once = [p.key for p in catalog_order(patterns)]
        again = [p.key for p in catalog_order(patterns)]
        assert once == again

    def test_size_then_support_desc(self):
        ordered = catalog_order(
            PatternSet(
                [
                    Pattern.from_graph(path_graph(3), [0]),
                    Pattern.from_graph(triangle(), [0, 1, 2]),
                    Pattern.from_graph(path_graph(2), [0, 1]),
                ]
            )
        )
        assert [p.size for p in ordered] == [1, 2, 3]


class TestSnapshot:
    def test_entries_match_order(self):
        _, patterns = mined(seed=5101)
        ordered = catalog_order(patterns)
        index = FragmentIndex.build(p.graph for p in ordered)
        snapshot = CatalogSnapshot(1, patterns, index, {})
        assert len(snapshot) == len(patterns)
        for pid, entry in enumerate(snapshot.entries):
            assert entry.pid == pid
            assert entry.key == ordered[pid].key
            assert entry.support == ordered[pid].support
            assert snapshot.entry(pid) is entry

    def test_index_size_mismatch_rejected(self):
        _, patterns = mined(seed=5102)
        index = FragmentIndex.build([triangle()])
        with pytest.raises(ValueError, match="index covers"):
            CatalogSnapshot(1, patterns, index, {})


class TestPublishLoad:
    def test_empty_catalog(self, tmp_path):
        catalog = PatternCatalog(tmp_path / "cat")
        assert catalog.manifest() is None
        assert catalog.current_version() is None
        with pytest.raises(FileNotFoundError, match="no snapshot"):
            catalog.load()

    def test_publish_then_load_roundtrip(self, tmp_path):
        db, patterns = mined(seed=5200)
        catalog = PatternCatalog(tmp_path / "cat")
        published = catalog.publish(
            patterns, meta={"note": "v1"}, database=db
        )
        assert published.version == 1
        loaded = catalog.load()
        assert loaded.version == 1
        assert loaded.meta == {"note": "v1", "backend": "memory"}
        assert loaded.patterns.keys() == patterns.keys()
        assert loaded.index == published.index
        assert [e.key for e in loaded.entries] == [
            e.key for e in published.entries
        ]

    def test_versions_increment(self, tmp_path):
        db, patterns = mined(seed=5201)
        catalog = PatternCatalog(tmp_path / "cat")
        assert catalog.publish(patterns).version == 1
        assert catalog.publish(patterns, database=db).version == 2
        assert catalog.current_version() == 2
        assert catalog.versions_on_disk() == [1, 2]
        assert catalog.load().version == 2

    def test_manifest_swap_is_atomic(self, tmp_path):
        _, patterns = mined(seed=5202)
        catalog = PatternCatalog(tmp_path / "cat")
        catalog.publish(patterns)
        # No temp file left behind, and the manifest names a snapshot
        # directory that is fully present on disk.
        leftovers = [
            p.name
            for p in (tmp_path / "cat").iterdir()
            if p.name.endswith(".tmp")
        ]
        assert leftovers == []
        manifest = catalog.manifest()
        snapshot_dir = tmp_path / "cat" / manifest["snapshot"]
        assert (snapshot_dir / "patterns.jsonl").exists()
        assert (snapshot_dir / "index.json").exists()

    def test_foreign_manifest_rejected(self, tmp_path):
        catalog_dir = tmp_path / "cat"
        catalog_dir.mkdir()
        (catalog_dir / "manifest.json").write_text(
            json.dumps({"format": 99, "version": 1})
        )
        with pytest.raises(ValueError, match="catalog format"):
            PatternCatalog(catalog_dir).manifest()

    def test_pattern_count_mismatch_rejected(self, tmp_path):
        _, patterns = mined(seed=5203)
        catalog = PatternCatalog(tmp_path / "cat")
        catalog.publish(patterns)
        manifest_path = tmp_path / "cat" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["patterns"] = len(patterns) + 5
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest says"):
            catalog.load()


class TestPrune:
    def test_prune_keeps_newest(self, tmp_path):
        db, patterns = mined(seed=5300)
        catalog = PatternCatalog(tmp_path / "cat")
        for _ in range(4):
            catalog.publish(patterns, database=db)
        removed = catalog.prune(keep=2)
        assert removed == [1, 2]
        assert catalog.versions_on_disk() == [3, 4]
        assert catalog.load().version == 4

    def test_prune_never_removes_current(self, tmp_path):
        _, patterns = mined(seed=5301)
        catalog = PatternCatalog(tmp_path / "cat")
        catalog.publish(patterns)
        assert catalog.prune(keep=1) == []
        assert catalog.load().version == 1

    def test_prune_requires_positive_keep(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            PatternCatalog(tmp_path / "cat").prune(keep=0)


class TestRetiredArtifacts:
    """Old artifacts are refused, never mis-served."""

    def test_sqlite_manifest_refused_then_republished(self, tmp_path):
        catalog_dir = tmp_path / "cat"
        catalog_dir.mkdir()
        (catalog_dir / "manifest.json").write_text(json.dumps({
            "format": 1, "version": 3, "snapshot": "snapshot-000003",
            "patterns": 5, "backend": "sqlite",
        }))
        with pytest.raises(ArtifactRetired, match="repro serve --patterns"):
            PatternCatalog(catalog_dir).load()
        db, patterns = mined(seed=5401)
        assert PatternCatalog(catalog_dir).publish(
            patterns, database=db
        ).version == 4
        assert PatternCatalog(catalog_dir).load().version == 4

    def test_mutation_count_index_refused_not_quarantined(self, tmp_path):
        db, patterns = mined(seed=5402)
        catalog = PatternCatalog(tmp_path / "cat")
        catalog.publish(patterns, database=db)
        index_path = tmp_path / "cat" / "snapshot-000001" / "index.json"
        data = json.loads(integrity.read_checked(index_path))
        data["format"] = 1
        for record in data["graphs"].values():
            record["version"] = 9
            del record["digest"]
        integrity.write_checked(index_path, json.dumps(data))
        with pytest.raises(ArtifactRetired, match="repro serve --patterns"):
            catalog.load()
        assert index_path.exists()

    def test_storage_keyword_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            PatternCatalog(tmp_path / "cat", storage=object())


#: Loads the catalog in a fresh interpreter and prints its answers.
SERVE_IN_FRESH_PROCESS = """
import json, sys
from repro.graph.io import read_database
from repro.serve import PatternCatalog, QueryEngine
database = read_database(sys.argv[2])
engine = QueryEngine(PatternCatalog(sys.argv[1]).load(), database)
print(json.dumps({
    "match": [sorted(engine.match(e.graph).gids)
              for e in engine.snapshot.entries],
    "coverage": sorted(engine.coverage()[1]),
}))
"""


def test_relabelled_database_served_exactly_in_a_fresh_process(tmp_path):
    """Publish over database A, serve over B in another process: B has
    A's graphs' shapes and version counters, relabelled."""
    db_a, patterns = mined(seed=5500, num_graphs=10)
    catalog = PatternCatalog(tmp_path / "cat")
    snapshot = catalog.publish(patterns, database=db_a)
    db_b = GraphDatabase()
    for gid, graph in db_a:
        labels = [(label + 1) % 3 for label in graph.vertex_labels()]
        edges = list(graph.edges())
        db_b.add(gid, make_graph(labels, edges))
    write_database(db_b, tmp_path / "b.tve")
    want_match = [
        sorted(query.match(e.graph, db_b).supporting_gids)
        for e in snapshot.entries
    ]
    assert want_match != [sorted(e.tids) for e in snapshot.entries]
    result = subprocess.run(
        [sys.executable, "-c", SERVE_IN_FRESH_PROCESS,
         str(tmp_path / "cat"), str(tmp_path / "b.tve")],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=Path(__file__).resolve().parent.parent,
    )
    served = json.loads(result.stdout)
    assert served["match"] == want_match
    _fraction, covered = query.coverage(patterns, db_b)
    assert served["coverage"] == sorted(covered)

