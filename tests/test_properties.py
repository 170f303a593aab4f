"""Property-based tests (hypothesis) for the core invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.join import SupportCounter
from repro.core.partminer import PartMiner
from repro.graph import io
from repro.graph.canonical import canonical_code, min_dfs_code
from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import (
    are_isomorphic,
    count_support,
    subgraph_exists,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.bruteforce import BruteForceMiner
from repro.mining.gaston import GastonMiner
from repro.mining.gspan import GSpanMiner
from repro.partition.graphpart import build_bipartition

from .conftest import permuted_copy


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def connected_graphs(draw, max_vertices=7, vlabels=3, elabels=2):
    """Random connected labeled graph: spanning tree + optional chords."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = LabeledGraph()
    for _ in range(n):
        graph.add_vertex(draw(st.integers(0, vlabels - 1)))
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        graph.add_edge(v, parent, draw(st.integers(0, elabels - 1)))
    extra = draw(st.integers(0, 3))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.integers(0, elabels - 1)))
    return graph


@st.composite
def databases(draw, max_graphs=8, max_vertices=6):
    count = draw(st.integers(2, max_graphs))
    return GraphDatabase.from_graphs(
        draw(connected_graphs(max_vertices=max_vertices))
        for _ in range(count)
    )


@st.composite
def graph_with_permutation(draw, max_vertices=7):
    graph = draw(connected_graphs(max_vertices=max_vertices))
    perm = draw(st.permutations(range(graph.num_vertices)))
    return graph, list(perm)


# ----------------------------------------------------------------------
# Canonical form invariants
# ----------------------------------------------------------------------
class TestCanonicalProperties:
    @settings(max_examples=60, deadline=None)
    @given(graph_with_permutation())
    def test_canonical_code_permutation_invariant(self, data):
        graph, perm = data
        assert canonical_code(permuted_copy(graph, perm)) == canonical_code(
            graph
        )

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_min_code_rebuilds_isomorphic_graph(self, graph):
        rebuilt = min_dfs_code(graph).to_graph()
        assert are_isomorphic(graph, rebuilt)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_vertices=6), connected_graphs(max_vertices=6))
    def test_code_equality_iff_isomorphism(self, g1, g2):
        same_code = canonical_code(g1) == canonical_code(g2)
        assert same_code == are_isomorphic(g1, g2)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_rightmost_path_is_root_to_rightmost(self, graph):
        code = min_dfs_code(graph)
        path = code.rightmost_path()
        assert path[0] == 0
        forward_targets = [j for i, j, *_ in code.edges if i < j]
        assert path[-1] == max(forward_targets)


# ----------------------------------------------------------------------
# Isomorphism invariants
# ----------------------------------------------------------------------
class TestIsomorphismProperties:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_subgraph_reflexive(self, graph):
        assert subgraph_exists(graph, graph)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_edge_subset_is_subgraph(self, graph, rng):
        edges = list(graph.edges())
        if len(edges) < 2:
            return
        keep = rng.sample(edges, rng.randint(1, len(edges) - 1))
        sub = graph.edge_subgraph((u, v) for u, v, _ in keep)
        for component in sub.connected_components():
            piece = sub.induced_subgraph(component)
            if piece.num_edges:
                assert subgraph_exists(piece, graph)

    @settings(max_examples=30, deadline=None)
    @given(graph_with_permutation())
    def test_isomorphism_symmetric(self, data):
        graph, perm = data
        clone = permuted_copy(graph, perm)
        assert are_isomorphic(graph, clone)
        assert are_isomorphic(clone, graph)


# ----------------------------------------------------------------------
# Mining invariants
# ----------------------------------------------------------------------
class TestMiningProperties:
    @settings(max_examples=15, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5), st.integers(2, 3))
    def test_gspan_equals_bruteforce(self, db, sup):
        got = GSpanMiner().mine(db, sup)
        want = BruteForceMiner().mine(db, sup)
        assert got.keys() == want.keys()
        for p in got:
            assert p.tids == want.get(p.key).tids

    @settings(max_examples=15, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5), st.integers(2, 3))
    def test_gaston_equals_gspan(self, db, sup):
        assert (
            GastonMiner().mine(db, sup).keys()
            == GSpanMiner().mine(db, sup).keys()
        )

    @settings(max_examples=15, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5))
    def test_support_antimonotone_in_threshold(self, db):
        low = GSpanMiner().mine(db, 2)
        high = GSpanMiner().mine(db, 3)
        assert high.keys() <= low.keys()

    @settings(max_examples=10, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5))
    def test_apriori_property(self, db):
        """Theorem 2: subgraphs of frequent graphs are frequent."""
        result = GSpanMiner().mine(db, 2)
        keys = result.keys()
        for p in result:
            for u, v, _ in list(p.graph.edges()):
                work = p.graph.copy()
                work.remove_edge(u, v)
                keep = [w for w in work.vertices() if work.degree(w) > 0]
                sub = work.induced_subgraph(keep)
                if sub.num_edges and sub.is_connected():
                    assert canonical_code(sub) in keys

    @settings(max_examples=12, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5), connected_graphs(max_vertices=4))
    def test_support_counter_matches_direct_count(self, db, pattern):
        counter = SupportCounter(db)
        got_support, got_tids = counter.count(pattern)
        want_support, want_tids = count_support(pattern, db)
        assert (got_support, got_tids) == (want_support, want_tids)


# ----------------------------------------------------------------------
# Partitioning invariants
# ----------------------------------------------------------------------
class TestPartitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_bipartition_edge_union_recovers_graph(self, graph, rng):
        n = graph.num_vertices
        subset = {
            v for v in range(n) if rng.random() < 0.5
        } or {0}
        if len(subset) == n:
            subset.discard(n - 1)
        bipart = build_bipartition(graph, subset, [0.0] * n)
        recovered = set()
        for side in (bipart.side0, bipart.side1):
            for u, v, label in side.graph.edges():
                ou, ov = side.to_original(u), side.to_original(v)
                recovered.add((min(ou, ov), max(ou, ov), label))
        assert recovered == {
            (min(u, v), max(u, v), label) for u, v, label in graph.edges()
        }

    @settings(max_examples=8, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5), st.integers(2, 4))
    def test_partminer_exact_equals_gspan(self, db, k):
        """Theorem 3: lossless recovery from the k units."""
        truth = GSpanMiner().mine(db, 2)
        result = PartMiner(k=k, unit_support="exact").mine(db, 2)
        assert result.patterns.keys() == truth.keys()

    @settings(max_examples=10, deadline=None)
    @given(databases(max_graphs=8, max_vertices=6))
    def test_partminer_paper_mode_sound(self, db):
        """Paper-threshold mode never reports false positives."""
        truth = GSpanMiner().mine(db, 3)
        result = PartMiner(k=2, unit_support="paper").mine(db, 3)
        assert result.patterns.keys() <= truth.keys()


# ----------------------------------------------------------------------
# Serialization invariants
# ----------------------------------------------------------------------
class TestIOProperties:
    @settings(max_examples=30, deadline=None)
    @given(databases())
    def test_text_roundtrip(self, db):
        back = io.loads(io.dumps(db))
        assert len(back) == len(db)
        for gid, graph in db:
            assert sorted(back[gid].edges()) == sorted(graph.edges())
            assert back[gid].vertex_labels() == graph.vertex_labels()

    @settings(max_examples=30, deadline=None)
    @given(databases(max_graphs=4))
    def test_adi_serialization_roundtrip(self, db):
        from repro.mining.adi.index import deserialize_graph, serialize_graph

        for _, graph in db:
            back = deserialize_graph(serialize_graph(graph))
            assert sorted(back.edges()) == sorted(graph.edges())
            assert back.vertex_labels() == graph.vertex_labels()


# ----------------------------------------------------------------------
# Extension invariants
# ----------------------------------------------------------------------
class TestExtensionProperties:
    @settings(max_examples=12, deadline=None)
    @given(databases(max_graphs=5, max_vertices=5))
    def test_store_roundtrip_property(self, db):
        import io as iomod

        from repro.mining.store import dump_patterns, load_patterns

        patterns = GSpanMiner().mine(db, 2)
        buffer = iomod.StringIO()
        dump_patterns(patterns, buffer)
        buffer.seek(0)
        back, _ = load_patterns(buffer)
        assert back.keys() == patterns.keys()
        for p in back:
            assert p.tids == patterns.get(p.key).tids

    @settings(max_examples=10, deadline=None)
    @given(connected_graphs(max_vertices=6), connected_graphs(max_vertices=5))
    def test_induced_implies_monomorphic(self, target, pattern):
        assert not subgraph_exists(
            pattern, target, induced=True
        ) or subgraph_exists(pattern, target)

