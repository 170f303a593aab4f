"""The flat-array (CSR) graph compiler: round-trips, caching, wire format.

:mod:`repro.perf.flatgraph` is the foundation of the accelerated match
path, so its invariants are pinned hard here:

* compiling a :class:`LabeledGraph` to a :class:`FlatGraph` and back is
  lossless (Hypothesis property);
* neighbor runs are sorted by ``(edge-label id, neighbor id)`` — the
  matcher's bisects silently return garbage otherwise;
* :func:`get_flat_db` caches per database *and* invalidates on graph
  mutation or replacement;
* the shared-memory wire format round-trips, detects corruption via its
  digest, and remaps label ids when the attaching process's interner
  disagrees with the publisher's (exercised in a real child process);
* published segments are tracked and destroyed exactly once.
"""

from __future__ import annotations

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import LabeledGraph
from repro.perf import flatgraph
from repro.perf.counters import COUNTERS
from repro.perf.flatgraph import (
    INTERNER,
    FlatDB,
    FlatGraph,
    FlatSegment,
    LabelInterner,
    attach_segment,
    get_flat_db,
    live_segments,
)
from repro.resilience.errors import ArtifactCorrupt

from .conftest import make_graph, random_database, random_graph
from .test_properties import connected_graphs


def edge_triples(graph: LabeledGraph) -> set:
    return {
        (min(u, v), max(u, v), label) for u, v, label in graph.edges()
    }


def vertex_labels(graph: LabeledGraph) -> list:
    return [graph.vertex_label(v) for v in range(graph.num_vertices)]


def assert_equivalent(a: LabeledGraph, b: LabeledGraph) -> None:
    assert vertex_labels(a) == vertex_labels(b)
    assert edge_triples(a) == edge_triples(b)


# ----------------------------------------------------------------------
# Interner
# ----------------------------------------------------------------------
class TestLabelInterner:
    def test_ids_are_dense_and_stable(self):
        interner = LabelInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0  # stable on re-intern
        assert len(interner) == 2
        assert interner.labels == ["a", "b"]

    def test_lookup_does_not_assign(self):
        interner = LabelInterner()
        assert interner.lookup("never") is None
        assert len(interner) == 0


# ----------------------------------------------------------------------
# FlatGraph round-trips and invariants
# ----------------------------------------------------------------------
class TestFlatGraphRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_vertices=7, vlabels=4, elabels=3))
    def test_round_trip_preserves_semantics(self, graph):
        assert_equivalent(FlatGraph.from_labeled(graph).to_labeled(), graph)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_vertices=7, vlabels=4, elabels=3))
    def test_round_trip_preserves_adjacency_order(self, graph):
        """Rebuilt rows iterate in the source graph's insertion order.

        The unit miners' extension order follows ``neighbors()``
        iteration, so anything weaker than exact order lets a worker
        that got its database via shared memory emit differently
        numbered (isomorphic) patterns than one that got a pickle.
        """
        rebuilt = FlatGraph.from_labeled(graph).to_labeled()
        for v in range(graph.num_vertices):
            assert list(rebuilt.neighbors(v)) == list(graph.neighbors(v))

    def test_shuffled_insertion_order_survives_round_trip(self):
        rng = random.Random(37)
        edges = [(u, v, rng.randrange(3)) for u in range(6) for v in range(u + 1, 6)]
        rng.shuffle(edges)
        graph = LabeledGraph()
        for _ in range(6):
            graph.add_vertex(rng.randrange(4))
        for u, v, lab in edges:
            graph.add_edge(u, v, lab)
        rebuilt = FlatGraph.from_labeled(graph).to_labeled()
        for v in range(6):
            assert list(rebuilt.neighbors(v)) == list(graph.neighbors(v))
        assert list(rebuilt.edges()) == list(graph.edges())

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_vertices=7, vlabels=4, elabels=3))
    def test_rows_sorted_by_label_then_neighbor(self, graph):
        """The bisect contract: every CSR row ascends in (elab, nbr)."""
        fg = FlatGraph.from_labeled(graph)
        assert list(fg.indptr) == sorted(fg.indptr)
        assert fg.indptr[0] == 0 and fg.indptr[fg.n] == 2 * fg.m
        for v in range(fg.n):
            row = [
                (fg.elab[k], fg.nbr[k])
                for k in range(fg.indptr[v], fg.indptr[v + 1])
            ]
            assert row == sorted(row)
            assert fg.degree(v) == len(row)

    def test_empty_and_single_vertex(self):
        empty = FlatGraph.from_labeled(LabeledGraph())
        assert empty.n == 0 and empty.m == 0
        single = make_graph(["x"], [])
        fg = FlatGraph.from_labeled(single)
        assert fg.n == 1 and fg.m == 0
        assert_equivalent(fg.to_labeled(), single)

    def test_by_label_index_is_complete(self):
        graph = random_graph(random.Random(9), 8, extra_edges=2)
        fg = FlatGraph.from_labeled(graph)
        listed = sorted(v for vs in fg.by_label.values() for v in vs)
        assert listed == list(range(fg.n))
        for lid, vs in fg.by_label.items():
            assert all(fg.vlab[v] == lid for v in vs)


# ----------------------------------------------------------------------
# FlatDB caching on the database
# ----------------------------------------------------------------------
class TestFlatDBCache:
    def test_cache_hit_on_unchanged_database(self):
        db = random_database(seed=11, num_graphs=4, n=5, extra_edges=1)
        hits = COUNTERS.flat_db_hits
        first = get_flat_db(db)
        assert get_flat_db(db) is first
        assert COUNTERS.flat_db_hits == hits + 1

    def test_mutation_invalidates(self):
        db = random_database(seed=12, num_graphs=3, n=5, extra_edges=1)
        first = get_flat_db(db)
        gid = db.gids()[0]
        db[gid].set_vertex_label(0, "mutated-label")
        second = get_flat_db(db)
        assert second is not first
        assert_equivalent(second.get(gid).to_labeled(), db[gid])

    def test_replacement_invalidates(self):
        db = random_database(seed=13, num_graphs=3, n=5, extra_edges=1)
        first = get_flat_db(db)
        gid = db.gids()[0]
        db.replace(gid, make_graph([0, 1], [(0, 1, 0)]))
        assert not first.valid_for(db)
        second = get_flat_db(db)
        assert second is not first
        assert_equivalent(second.get(gid).to_labeled(), db[gid])

    def test_flat_db_matches_database(self):
        db = random_database(seed=14, num_graphs=5, n=6, extra_edges=2)
        flat = get_flat_db(db)
        assert flat.gids == db.gids()
        for gid, graph in db:
            assert_equivalent(flat.get(gid).to_labeled(), graph)

    def test_to_database_round_trip(self):
        db = random_database(seed=15, num_graphs=4, n=5, extra_edges=1)
        rebuilt = get_flat_db(db).to_database()
        assert rebuilt.gids() == db.gids()
        for gid, graph in db:
            assert_equivalent(rebuilt[gid], graph)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def make_flat(self, seed=21):
        db = random_database(seed=seed, num_graphs=4, n=6, extra_edges=2)
        return db, FlatDB.compile(db)

    def test_bytes_round_trip(self):
        db, flat = self.make_flat()
        parsed = flatgraph._parse_blob(flat.to_bytes())
        assert parsed.gids == db.gids()
        for gid, graph in db:
            assert_equivalent(parsed.get(gid).to_labeled(), graph)

    def test_bytes_round_trip_preserves_adjacency_order(self):
        """The wire format carries the pre-sort adjacency rows, so a
        worker-side ``to_database()`` iterates neighbors exactly like
        the parent's originals — the byte-identity contract for
        shared-memory runs."""
        db, flat = self.make_flat(25)
        rebuilt = flatgraph._parse_blob(flat.to_bytes()).to_database()
        for gid, graph in db:
            for v in range(graph.num_vertices):
                assert list(rebuilt[gid].neighbors(v)) == list(graph.neighbors(v))

    def test_bad_magic_rejected(self):
        _, flat = self.make_flat(22)
        data = bytearray(flat.to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(ArtifactCorrupt):
            flatgraph._parse_blob(bytes(data))

    def test_bit_flip_rejected(self):
        _, flat = self.make_flat(23)
        data = bytearray(flat.to_bytes())
        data[len(data) // 2] ^= 0x01
        with pytest.raises(ArtifactCorrupt, match="corrupt"):
            flatgraph._parse_blob(bytes(data))

    def test_truncation_rejected(self):
        _, flat = self.make_flat(24)
        data = flat.to_bytes()
        for cut in (10, len(data) // 2, len(data) - 1):
            with pytest.raises(ArtifactCorrupt):
                flatgraph._parse_blob(data[:cut])

    def test_empty_blob_rejected(self):
        with pytest.raises(ArtifactCorrupt):
            flatgraph._parse_blob(b"")


# ----------------------------------------------------------------------
# Shared-memory segments
# ----------------------------------------------------------------------
class TestSegmentLifecycle:
    def test_publish_attach_destroy(self):
        db = random_database(seed=31, num_graphs=4, n=5, extra_edges=1)
        segment = FlatSegment.publish(get_flat_db(db))
        try:
            assert segment.name in live_segments()
            attached = attach_segment(segment.name)
            rebuilt = attached.to_database()
            assert rebuilt.gids() == db.gids()
            for gid, graph in db:
                assert_equivalent(rebuilt[gid], graph)
            attached.release()
            # release() is about the *mapping*; the segment itself is
            # still published until the owner destroys it.
            assert segment.name in live_segments()
        finally:
            segment.destroy()
        assert segment.name not in live_segments()

    def test_destroy_is_idempotent(self):
        db = random_database(seed=32, num_graphs=2, n=4, extra_edges=0)
        segment = FlatSegment.publish(get_flat_db(db))
        segment.destroy()
        segment.destroy()
        assert segment.name not in live_segments()

    def test_attach_after_destroy_fails(self):
        db = random_database(seed=33, num_graphs=2, n=4, extra_edges=0)
        segment = FlatSegment.publish(get_flat_db(db))
        segment.destroy()
        with pytest.raises(Exception):
            attach_segment(segment.name)

    def test_release_then_gc_does_not_error(self):
        """Attached FlatGraphs hold views into the mapping; release()
        must drop them before closing or the unmap raises BufferError."""
        import gc

        db = random_database(seed=34, num_graphs=3, n=5, extra_edges=1)
        segment = FlatSegment.publish(get_flat_db(db))
        try:
            attached = attach_segment(segment.name)
            fg = attached.get(db.gids()[0])  # exported pointers live here
            assert fg.n == db[db.gids()[0]].num_vertices
            del fg
            attached.release()
            assert attached.get(db.gids()[0]) is None  # unusable after
            del attached
            gc.collect()
        finally:
            segment.destroy()

    def test_cross_process_attach_remaps_label_ids(self):
        """A child whose interner assigns different ids still decodes the
        published segment into the same graphs (the meta block carries
        the publisher's label table)."""
        db = GraphDatabase.from_graphs(
            [
                make_graph(["red", "blue"], [(0, 1, "thick")]),
                make_graph(
                    ["blue", "red", "red"],
                    [(0, 1, "thin"), (1, 2, "thick")],
                ),
            ]
        )
        segment = FlatSegment.publish(get_flat_db(db))
        try:
            code = (
                "import sys\n"
                "from repro.perf import flatgraph\n"
                "# Skew the child's interner so publisher ids != local ids.\n"
                "for label in ('skew-a', 'skew-b', 'thick'):\n"
                "    flatgraph.INTERNER.intern(label)\n"
                f"flat = flatgraph.attach_segment({segment.name!r})\n"
                "for gid in flat.gids:\n"
                "    g = flat.get(gid).to_labeled()\n"
                "    vl = [g.vertex_label(v) for v in range(g.num_vertices)]\n"
                "    el = sorted(\n"
                "        (min(u, v), max(u, v), label)\n"
                "        for u, v, label in g.edges()\n"
                "    )\n"
                "    print(gid, vl, el)\n"
                "flat.release()\n"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                cwd=str(__import__("pathlib").Path(__file__).parent.parent),
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            want = [
                f"{gid} {vertex_labels(g)} {sorted(edge_triples(g))}"
                for gid, g in db
            ]
            assert proc.stdout.strip().splitlines() == want
        finally:
            segment.destroy()

    def test_identity_attach_is_zero_copy(self):
        """Same-process attach (interner already agrees) keeps the arrays
        as memoryviews into the segment — no copies."""
        db = random_database(seed=35, num_graphs=3, n=5, extra_edges=1)
        segment = FlatSegment.publish(get_flat_db(db))
        try:
            attached = attach_segment(segment.name)
            fg = attached.get(db.gids()[0])
            assert isinstance(fg.vlab, memoryview)
            assert isinstance(fg.nbr, memoryview)
            del fg
            attached.release()
        finally:
            segment.destroy()
