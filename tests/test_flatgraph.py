"""The flat-array (CSR) graph compiler: compilation and caching.

:mod:`repro.perf.flatgraph` is the foundation of the accelerated match
path, so its invariants are pinned hard here:

* a :class:`FlatGraph` describes exactly the vertices, labels and edges
  of the :class:`LabeledGraph` it was compiled from (Hypothesis
  property);
* neighbor runs are sorted by ``(edge-label id, neighbor id)`` — the
  matcher's bisects silently return garbage otherwise;
* :func:`get_flat_db` caches per database *and* invalidates on graph
  mutation or replacement.
"""

from __future__ import annotations

import random

from hypothesis import given, settings

from repro.graph.labeled_graph import LabeledGraph
from repro.perf.counters import COUNTERS
from repro.perf.flatgraph import (
    INTERNER,
    FlatGraph,
    LabelInterner,
    get_flat_db,
)

from .conftest import make_graph, random_database, random_graph
from .test_properties import connected_graphs


def edge_triples(graph: LabeledGraph) -> set:
    return {
        (min(u, v), max(u, v), label) for u, v, label in graph.edges()
    }


def vertex_labels(graph: LabeledGraph) -> list:
    return [graph.vertex_label(v) for v in range(graph.num_vertices)]


def assert_compiled_from(fg: FlatGraph, graph: LabeledGraph) -> None:
    """``fg``'s arrays, read back through the interner, are ``graph``."""
    labels = INTERNER.labels
    assert [labels[lid] for lid in fg.vlab] == vertex_labels(graph)
    assert fg.m == graph.num_edges
    assert {
        (v, fg.nbr[k], labels[fg.elab[k]])
        for v in range(fg.n)
        for k in range(fg.indptr[v], fg.indptr[v + 1])
        if v < fg.nbr[k]
    } == edge_triples(graph)


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
        assert_compiled_from(FlatGraph.from_labeled(graph), graph)

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
        assert_compiled_from(fg, single)

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
        assert_compiled_from(second.get(gid), db[gid])

    def test_replacement_invalidates(self):
        db = random_database(seed=13, num_graphs=3, n=5, extra_edges=1)
        first = get_flat_db(db)
        gid = db.gids()[0]
        db.replace(gid, make_graph([0, 1], [(0, 1, 0)]))
        assert first.stale_gids(db) != []
        second = get_flat_db(db)
        assert second is not first
        assert_compiled_from(second.get(gid), db[gid])

    def test_flat_db_matches_database(self):
        db = random_database(seed=14, num_graphs=5, n=6, extra_edges=2)
        flat = get_flat_db(db)
        assert flat.gids == db.gids()
        for gid, graph in db:
            assert_compiled_from(flat.get(gid), graph)
