"""Tests for minimum DFS codes (the gSpan canonical form)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import canonical
from repro.graph.canonical import (
    DFSCode,
    canonical_code,
    code_sort_key,
    edge_sort_key,
    is_min_code,
    min_dfs_code,
)
from repro.graph.isomorphism import are_isomorphic
from repro.graph.labeled_graph import LabeledGraph
from repro.perf import COUNTERS

from .conftest import (
    make_graph,
    path_graph,
    permuted_copy,
    random_database,
    random_graph,
    star_graph,
    triangle,
)


class TestPaperFigure1:
    """The paper's Fig 1 example: min code of the example graph."""

    def graph(self):
        return make_graph(
            [0, 0, 1, 2],
            [(0, 1, "a"), (1, 2, "a"), (1, 3, "c"), (3, 0, "b")],
        )

    def test_min_code_matches_paper(self):
        code = min_dfs_code(self.graph())
        assert code.edges == (
            (0, 1, 0, "a", 0),
            (1, 2, 0, "a", 1),
            (1, 3, 0, "c", 2),
            (3, 0, 2, "b", 0),
        )

    def test_fig1_alternative_codes_are_larger(self):
        # The T2/T3 codes from Fig 1(c)/(d) must compare greater.
        t1 = code_sort_key(min_dfs_code(self.graph()).edges)
        t2 = code_sort_key(
            [
                (0, 1, 0, "a", 0),
                (1, 2, 0, "b", 2),
                (2, 0, 2, "c", 0),
                (0, 3, 0, "a", 1),
            ]
        )
        assert t1 < t2


class TestInvariance:
    def test_permutation_invariance_exhaustive_small(self):
        g = triangle(labels=(0, 1, 2))
        base = canonical_code(g)
        for perm in itertools.permutations(range(3)):
            assert canonical_code(permuted_copy(g, list(perm))) == base

    def test_permutation_invariance_random(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(2, 8), 2)
            perm = list(range(g.num_vertices))
            rng.shuffle(perm)
            assert canonical_code(permuted_copy(g, perm)) == canonical_code(g)

    def test_codes_equal_iff_isomorphic(self):
        rng = random.Random(14)
        for _ in range(60):
            g1 = random_graph(rng, rng.randrange(2, 7), 1, 2, 2)
            g2 = random_graph(rng, g1.num_vertices, 1, 2, 2)
            if g1.num_edges != g2.num_edges:
                continue
            assert (canonical_code(g1) == canonical_code(g2)) == (
                are_isomorphic(g1, g2)
            )


class TestDFSCode:
    def test_to_graph_roundtrip(self):
        rng = random.Random(15)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(2, 7), 2)
            code = min_dfs_code(g)
            rebuilt = code.to_graph()
            assert are_isomorphic(g, rebuilt)
            assert min_dfs_code(rebuilt).sort_key() == code.sort_key()

    def test_num_vertices(self):
        code = min_dfs_code(path_graph(4))
        assert code.num_vertices() == 4
        assert len(code) == 3

    def test_rightmost_path_of_path(self):
        code = min_dfs_code(path_graph(4))
        assert code.rightmost_path() == [0, 1, 2, 3]

    def test_rightmost_path_of_star(self):
        code = min_dfs_code(star_graph(3, center_label=0, leaf_label=1))
        # Star: root is the center, each leaf a forward edge; rightmost
        # path is root -> last leaf.
        assert len(code.rightmost_path()) == 2

    def test_str_format(self):
        code = min_dfs_code(LabeledGraph.single_edge(1, 2, 3))
        assert str(code) == "(0,1,1,2,3)"


class TestEdgeOrder:
    def test_backward_before_forward(self):
        backward = (2, 0, 0, 0, 0)
        forward = (2, 3, 0, 0, 0)
        assert edge_sort_key(backward) < edge_sort_key(forward)

    def test_forward_deeper_source_first(self):
        from_deep = (2, 3, 0, 0, 0)
        from_shallow = (0, 3, 0, 0, 0)
        assert edge_sort_key(from_deep) < edge_sort_key(from_shallow)

    def test_backward_smaller_target_first(self):
        assert edge_sort_key((3, 0, 0, 0, 0)) < edge_sort_key((3, 1, 0, 0, 0))

    def test_labels_break_ties(self):
        assert edge_sort_key((1, 2, 0, "a", 0)) < edge_sort_key(
            (1, 2, 0, "b", 0)
        )


class TestIsMinCode:
    def test_min_code_is_min(self):
        g = triangle(labels=(0, 1, 2))
        assert is_min_code(min_dfs_code(g).edges)

    def test_non_min_code_detected(self):
        # Fig 1 T2's code is valid but not minimal.
        code = [
            (0, 1, 0, "a", 0),
            (1, 2, 0, "b", 2),
            (2, 0, 2, "c", 0),
            (0, 3, 0, "a", 1),
        ]
        assert not is_min_code(code)


class TestErrors:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            min_dfs_code(LabeledGraph())

    def test_disconnected_rejected(self):
        g = make_graph([0, 0, 0, 0], [(0, 1, 0), (2, 3, 0)])
        with pytest.raises(ValueError, match="connected"):
            min_dfs_code(g)


class TestTrickyStructures:
    """Graphs that exercise backtracking in the min-code search."""

    def test_square(self):
        g = make_graph([0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)])
        code = min_dfs_code(g)
        assert code.edges == (
            (0, 1, 0, 0, 0),
            (1, 2, 0, 0, 0),
            (2, 3, 0, 0, 0),
            (3, 0, 0, 0, 0),
        )

    def test_two_triangles_sharing_vertex(self):
        g = make_graph(
            [0] * 5,
            [
                (0, 1, 0), (1, 2, 0), (2, 0, 0),
                (0, 3, 0), (3, 4, 0), (4, 0, 0),
            ],
        )
        code = min_dfs_code(g)
        assert len(code) == 6
        assert is_min_code(code.edges)

    def test_complete_graph_k4(self):
        g = make_graph(
            [0] * 4,
            [(u, v, 0) for u in range(4) for v in range(u + 1, 4)],
        )
        code = min_dfs_code(g)
        assert len(code) == 6
        # K4's min code: every new vertex closes all back edges first.
        assert code.edges[0] == (0, 1, 0, 0, 0)
        assert is_min_code(code.edges)

    def test_labeled_asymmetry(self):
        # Same topology, labels force a unique minimal root.
        g = make_graph([5, 1, 3], [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        code = min_dfs_code(g)
        assert code.edges[0][2] == 1  # smallest vertex label starts the code


class TestHighlySymmetricGraphs:
    """Symmetric graphs stress the embedding bookkeeping hardest."""

    def petersen(self):
        outer = [(i, (i + 1) % 5, 0) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5, 0) for i in range(5)]
        spokes = [(i, 5 + i, 0) for i in range(5)]
        return make_graph([0] * 10, outer + inner + spokes)

    def test_petersen_canonical_is_stable(self):
        g = self.petersen()
        code = min_dfs_code(g)
        assert len(code) == 15
        assert is_min_code(code.edges)

    def test_petersen_permutation_invariance(self):
        g = self.petersen()
        base = canonical_code(g)
        perm = [3, 8, 1, 6, 0, 9, 2, 7, 5, 4]
        assert canonical_code(permuted_copy(g, perm)) == base

    def test_complete_bipartite_k23(self):
        g = make_graph(
            [0, 0, 1, 1, 1],
            [(u, v, 0) for u in (0, 1) for v in (2, 3, 4)],
        )
        code = min_dfs_code(g)
        assert len(code) == 6
        assert is_min_code(code.edges)

    def test_wheel_graph(self):
        spokes = [(0, i, 0) for i in range(1, 6)]
        rim = [(i, i % 5 + 1, 1) for i in range(1, 6)]
        g = make_graph([9] + [0] * 5, spokes + rim)
        base = canonical_code(g)
        perm = [0, 3, 4, 5, 1, 2]  # rotate the rim: automorphism
        assert canonical_code(permuted_copy(g, perm)) == base

    def test_long_cycle(self):
        n = 12
        g = make_graph([0] * n, [(i, (i + 1) % n, 0) for i in range(n)])
        code = min_dfs_code(g)
        # A uniform cycle's min code: a path of forward edges + one
        # closing backward edge.
        backward = [e for e in code.edges if e[0] > e[1]]
        assert len(backward) == 1
        assert backward[0][:2] == (n - 1, 0)


class TestAgainstWeisfeilerLehman:
    """Cross-check: equal canonical codes imply equal WL hashes, and
    differing WL hashes imply differing canonical codes."""

    def test_wl_hash_consistency(self):
        nx = pytest.importorskip("networkx")

        def to_nx(g):
            h = nx.Graph()
            for v in g.vertices():
                h.add_node(v, label=str(g.vertex_label(v)))
            for u, v, label in g.edges():
                h.add_edge(u, v, label=str(label))
            return h

        def wl(g):
            return nx.weisfeiler_lehman_graph_hash(
                to_nx(g), node_attr="label", edge_attr="label"
            )

        rng = random.Random(77)
        graphs = [random_graph(rng, rng.randrange(3, 8), 2) for _ in range(30)]
        for g1 in graphs:
            for g2 in graphs:
                if canonical_code(g1) == canonical_code(g2):
                    assert wl(g1) == wl(g2)
                elif wl(g1) != wl(g2):
                    assert canonical_code(g1) != canonical_code(g2)


@st.composite
def connected_graphs(draw, max_vertices=7):
    """A spanning tree plus a few chords, labels from small alphabets."""
    n = draw(st.integers(2, max_vertices))
    graph = LabeledGraph()
    for _ in range(n):
        graph.add_vertex(draw(st.integers(0, 2)))
    for v in range(1, n):
        graph.add_edge(v, draw(st.integers(0, v - 1)), draw(st.integers(0, 1)))
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.integers(0, 1)))
    return graph


def fresh_code(graph):
    """The oracle: a from-scratch minimum DFS code, or the error it raises."""
    try:
        return min_dfs_code(graph).sort_key()
    except ValueError as exc:
        return type(exc)


def table_code(graph):
    try:
        return canonical_code(graph)
    except ValueError as exc:
        return type(exc)


class TestShapeTable:
    """The process-wide shape table behind ``canonical_code`` is exact:
    every answer equals a fresh :func:`min_dfs_code`, cold or warm."""

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_cold_and_warm_answers_equal_a_fresh_code(self, graph, rng):
        want = min_dfs_code(graph).sort_key()
        perm = list(range(graph.num_vertices))
        rng.shuffle(perm)
        edges = list(graph.edges())
        rng.shuffle(edges)

        def copies():
            rebuilt = LabeledGraph()
            for label in graph.vertex_labels():
                rebuilt.add_vertex(label)
            for u, v, label in edges:
                rebuilt.add_edge(v, u, label)
            return [permuted_copy(graph, perm), rebuilt]

        canonical._SHAPE_TABLE.clear()
        assert [canonical_code(g) for g in copies()] == [want, want]  # cold
        assert [canonical_code(g) for g in copies()] == [want, want]  # warm

    def test_every_mutator_yields_the_mutated_graphs_code(self):
        graph = make_graph([0, 0, 1], [(0, 1, 5), (1, 2, 5)])
        steps = [
            lambda g: g.set_edge_label(0, 1, 6),
            lambda g: g.set_vertex_label(2, 0),
            lambda g: g.set_vertex_label(2, 1),
            lambda g: g.add_vertex(1),  # isolated: no code
            lambda g: g.add_edge(2, 3, 5),
            lambda g: g.remove_edge(0, 1),  # disconnected: no code
            lambda g: g.add_edge(0, 3, 6),  # same labels, rewired
        ]
        canonical._SHAPE_TABLE.clear()
        for step in steps:
            table_code(graph)  # cache the shape before mutating it
            step(graph)
            want = fresh_code(graph)
            assert table_code(graph) == want
            assert table_code(graph.copy()) == want  # empty instance slot

    def test_same_labels_different_wiring_get_different_codes(self):
        center_0 = make_graph([0, 0, 1], [(0, 1, 5), (1, 2, 5)])
        center_1 = make_graph([0, 0, 1], [(0, 2, 5), (1, 2, 5)])
        canonical._SHAPE_TABLE.clear()
        assert canonical_code(center_0) == fresh_code(center_0)
        assert canonical_code(center_1) == fresh_code(center_1)
        assert canonical_code(center_0) != canonical_code(center_1)

    def test_adjacency_order_does_not_change_the_code(self):
        labels = [0, 1, 0, 2]
        edges = [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 0, 1), (0, 2, 0)]
        forward = make_graph(labels, edges)
        backward = make_graph(labels, [(v, u, l) for u, v, l in edges[::-1]])
        assert list(forward.edges()) != list(backward.edges())
        canonical._SHAPE_TABLE.clear()
        want = fresh_code(forward)
        assert canonical_code(forward) == canonical_code(backward) == want

    def test_overflow_clears_the_table_and_stays_exact(self, monkeypatch):
        monkeypatch.setattr(canonical, "_SHAPE_TABLE_LIMIT", 4)
        canonical._SHAPE_TABLE.clear()
        rng = random.Random(21)
        graphs = [random_graph(rng, rng.randrange(2, 7), 2) for _ in range(30)]
        sizes = []
        for g in graphs + [g.copy() for g in graphs]:
            assert canonical_code(g) == fresh_code(g)
            sizes.append(len(canonical._SHAPE_TABLE))
        assert max(sizes) == 4
        assert 1 in sizes[4:]  # cleared in one go, then refilled

    def test_only_misses_are_counted(self):
        g = triangle(labels=(0, 1, 2))
        canonical._SHAPE_TABLE.clear()
        before = COUNTERS.canonical_codes
        canonical_code(g)  # miss
        canonical_code(g)  # instance slot
        canonical_code(g.copy())  # table hit
        canonical_code(permuted_copy(g, [2, 0, 1]))  # another shape: miss
        assert COUNTERS.canonical_codes - before == 2

    def test_cold_table_session_dumps_the_same_bytes(self, tmp_path):
        from repro.core.incremental import IncrementalPartMiner
        from repro.mining.store import save_patterns
        from repro.updates.generator import UpdateGenerator
        from repro.updates.tracker import hot_vertex_assignment

        db = random_database(seed=910, num_graphs=12, n=6)
        ufreq = hot_vertex_assignment(db, 0.25, seed=3)
        dumps = []
        for cold in (False, True):
            inc = IncrementalPartMiner(k=2)
            inc.initial_mine(db, 3, ufreq=ufreq)
            gen = UpdateGenerator(3, 2, seed=4)
            for _ in range(3):
                if cold:
                    canonical._SHAPE_TABLE.clear()
                inc.apply_updates(
                    gen.generate(inc.database, inc.ufreq, 0.3, 1, "mixed")
                )
            path = tmp_path / f"cold-{cold}.jsonl"
            save_patterns(inc.current_patterns, path)
            dumps.append(path.read_bytes())
        assert dumps[0] == dumps[1]
