"""Tests for weights, GraphPart, and the METIS-like partitioner."""

import random
from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.graph.labeled_graph import LabeledGraph
from repro.partition.graphpart import (
    GraphPartitioner,
    build_bipartition,
    dfs_scan,
)
from repro.partition.metis import MetisPartitioner
from repro.partition.weights import (
    PARTITION1,
    PARTITION2,
    PARTITION3,
    PartitionWeights,
    cut_edges,
)

from .conftest import make_graph, path_graph, random_graph, triangle


class TestWeights:
    def test_cut_edges(self):
        g = path_graph(4)
        assert cut_edges(g, {0, 1}) == [(1, 2)]
        assert cut_edges(g, {0, 2}) == [(0, 1), (1, 2), (2, 3)]

    def test_evaluate_partition1_ignores_cut(self):
        g = path_graph(4)
        ufreq = [1.0, 1.0, 0.0, 0.0]
        w_good = PARTITION1.evaluate(g, {0, 1}, ufreq)
        w_bad = PARTITION1.evaluate(g, {2, 3}, ufreq)
        assert w_good == 1.0
        assert w_bad == 0.0

    def test_evaluate_partition2_penalizes_cut(self):
        g = path_graph(4)
        ufreq = [0.0] * 4
        assert PARTITION2.evaluate(g, {0, 1}, ufreq) == -1.0
        assert PARTITION2.evaluate(g, {0, 2}, ufreq) == -3.0

    def test_partition3_combines(self):
        g = path_graph(4)
        ufreq = [1.0, 1.0, 0.0, 0.0]
        assert PARTITION3.evaluate(g, {0, 1}, ufreq) == 0.0  # 1.0 - 1 cut

    def test_empty_subset_is_minus_inf(self):
        assert PartitionWeights().evaluate(
            path_graph(2), set(), [0, 0]
        ) == float("-inf")


class TestDFSScan:
    def test_respects_limit(self):
        g = path_graph(6)
        subset = dfs_scan(g, 0, 3, [0.0] * 6)
        assert len(subset) == 3
        assert subset == {0, 1, 2}

    def test_follows_high_ufreq_neighbor(self):
        g = make_graph([0] * 4, [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 0)])
        ufreq = [0.0, 0.1, 0.9, 0.0]
        subset = dfs_scan(g, 0, 2, ufreq)
        assert subset == {0, 2}  # prefers the hot neighbor

    def test_backtracks_when_stuck(self):
        # Star: the walk reaches a leaf and must backtrack to the center.
        g = make_graph([0] * 4, [(0, 1, 0), (0, 2, 0), (0, 3, 0)])
        subset = dfs_scan(g, 1, 3, [0.0] * 4)
        assert len(subset) == 3


class TestBuildBipartition:
    def test_connective_edges_in_both_sides(self):
        g = path_graph(4)
        bipart = build_bipartition(g, {0, 1}, [0.0] * 4)
        assert bipart.connective_edges == ((1, 2),)
        # Side 0: edge (0,1) + cut (1,2); side 1: (2,3) + cut (1,2).
        assert bipart.side0.graph.num_edges == 2
        assert bipart.side1.graph.num_edges == 2

    def test_edge_union_recovers_graph(self):
        rng = random.Random(10)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(4, 9), 3)
            subset = set(
                rng.sample(range(g.num_vertices), g.num_vertices // 2)
            )
            bipart = build_bipartition(g, subset, [0.0] * g.num_vertices)
            recovered = set()
            for side in (bipart.side0, bipart.side1):
                for u, v, label in side.graph.edges():
                    ou, ov = side.to_original(u), side.to_original(v)
                    recovered.add((min(ou, ov), max(ou, ov), label))
            original = {
                (min(u, v), max(u, v), label) for u, v, label in g.edges()
            }
            assert recovered == original

    def test_labels_preserved(self):
        g = triangle(labels=(7, 8, 9))
        bipart = build_bipartition(g, {0}, [0.0] * 3)
        side = bipart.side0
        for v in side.graph.vertices():
            assert side.graph.vertex_label(v) == g.vertex_label(
                side.to_original(v)
            )

    def test_cores_are_disjoint_and_cover(self):
        g = path_graph(5)
        bipart = build_bipartition(g, {0, 1}, [0.0] * 5)
        assert bipart.core0 & bipart.core1 == frozenset()
        assert bipart.core0 | bipart.core1 == set(range(5))

    def test_ufreq_propagated(self):
        g = path_graph(3)
        bipart = build_bipartition(g, {0}, [0.5, 0.2, 0.9])
        side = bipart.side0
        for v in side.graph.vertices():
            assert side.ufreq[v] == [0.5, 0.2, 0.9][side.to_original(v)]


class TestGraphPartitioner:
    def test_trivial_graphs_go_to_side0(self):
        single = make_graph([0], [])
        bipart = GraphPartitioner()(single, [0.0])
        assert bipart.side0.graph.num_vertices == 1
        assert bipart.side1.graph.num_vertices == 0

    def test_both_sides_nonempty_for_real_graphs(self):
        rng = random.Random(20)
        partitioner = GraphPartitioner()
        for _ in range(20):
            g = random_graph(rng, rng.randrange(4, 10), 2)
            bipart = partitioner(g, [0.0] * g.num_vertices)
            assert bipart.core0 and bipart.core1

    def test_partition1_isolates_hot_vertices(self):
        # A path with hot vertices at one end: Partition1 groups them.
        g = path_graph(6)
        ufreq = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        bipart = GraphPartitioner(PARTITION1)(g, ufreq)
        hot_side = (
            bipart.core0 if 0 in bipart.core0 else bipart.core1
        )
        assert {0, 1, 2} <= hot_side

    def test_partition2_minimizes_cut_on_barbell(self):
        # Two triangles joined by one bridge: the min cut is the bridge.
        g = make_graph(
            [0] * 6,
            [
                (0, 1, 0), (1, 2, 0), (2, 0, 0),
                (2, 3, 0),
                (3, 4, 0), (4, 5, 0), (5, 3, 0),
            ],
        )
        bipart = GraphPartitioner(PARTITION2)(g, [0.0] * 6)
        assert bipart.num_connective_edges == 1
        assert bipart.connective_edges[0] == (2, 3)

    def test_deterministic(self):
        rng = random.Random(30)
        g = random_graph(rng, 8, 3)
        partitioner = GraphPartitioner()
        b1 = partitioner(g, [0.0] * 8)
        b2 = partitioner(g, [0.0] * 8)
        assert b1.core0 == b2.core0


# ----------------------------------------------------------------------
# Differential: the partitioner against the straightforward algorithm
# ----------------------------------------------------------------------
def reference_dfs_scan(graph, seed, limit, ufreq):
    """DFSScan as the paper states it: re-scan the stack top every step."""
    visited = {seed}
    stack = [seed]
    while stack and len(visited) < limit:
        current = stack[-1]
        best = None
        best_key = None
        for neighbor in graph.neighbor_ids(current):
            if neighbor in visited:
                continue
            key = (ufreq[neighbor], -neighbor)
            if best is None or key > best_key:
                best, best_key = neighbor, key
        if best is None:
            stack.pop()
            continue
        visited.add(best)
        stack.append(best)
    return visited


def reference_subset(weights, graph, ufreq):
    """Fig 5's seed loop: plain scan per seed, ``evaluate`` (which counts
    the cut with ``cut_edges``), first strict maximum wins."""
    n = graph.num_vertices
    if n < 2 or graph.num_edges == 0:
        return set(graph.vertices())
    order = sorted(graph.vertices(), key=lambda v: (-ufreq[v], v))
    limit = max(1, n // 2)
    best_subset, best_weight = None, float("-inf")
    for seed in order[:limit]:
        subset = reference_dfs_scan(graph, seed, limit, ufreq)
        weight = weights.evaluate(graph, subset, ufreq)
        if weight > best_weight:
            best_subset, best_weight = subset, weight
    return best_subset if best_subset is not None else set(order[:limit])


def reference_sides(graph, subset, ufreq):
    """Both sides of ``subset`` as (labels, edges, orig_vertices, ufreq)."""
    crossing = cut_edges(graph, subset)
    touched = {w for edge in crossing for w in edge}
    sides = []
    for core in (subset, set(graph.vertices()) - subset):
        ordered = sorted(core) + sorted(touched - core)
        new_id = {old: new for new, old in enumerate(ordered)}
        side = LabeledGraph()
        for old in ordered:
            side.add_vertex(graph.vertex_label(old))
        for u, v, label in graph.edges():
            if u in core or v in core:
                side.add_edge(new_id[u], new_id[v], label)
        sides.append((side, tuple(ordered), tuple(ufreq[v] for v in ordered)))
    return tuple(crossing), sides


def rows_of(graph):
    """Labels plus every adjacency row in order: equal iff built alike."""
    return graph.vertex_labels(), [
        list(graph.adjacency(v).items()) for v in graph.vertices()
    ]


@st.composite
def graphs_maybe_disconnected(draw, max_vertices=12):
    n = draw(st.integers(1, max_vertices))
    graph = LabeledGraph()
    for _ in range(n):
        graph.add_vertex(draw(st.integers(0, 2)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)
                  if pairs else st.just([]))
    for u, v in chosen:
        graph.add_edge(u, v, draw(st.integers(0, 1)))
    return graph


@st.composite
def partition_cases(draw):
    graph = draw(graphs_maybe_disconnected())
    values = draw(
        st.sampled_from(
            [
                st.just(0.0),  # all zero: pure connectivity
                st.sampled_from([0.0, 0.5]),  # heavily tied
                # Non-dyadic: a changed summation order flips ties here.
                st.sampled_from([0.1, 0.2, 0.3]),
                st.floats(0.0, 1.0),
            ]
        )
    )
    ufreq = [draw(values) for _ in range(graph.num_vertices)]
    weights = draw(
        st.sampled_from([PARTITION1, PARTITION2, PARTITION3])
        | st.builds(
            PartitionWeights,
            st.floats(0.0, 3.0),
            st.floats(0.0, 3.0),
        )
    )
    return graph, ufreq, weights


@dataclass(frozen=True)
class RecordingWeights(PartitionWeights):
    """Records each seed's subset and the cut size the walk carried."""

    seen: list = field(default_factory=list, compare=False)

    def weight(self, members, ufreq, cut):
        self.seen.append((set(members), cut))
        return super().weight(members, ufreq, cut)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(partition_cases())
    def test_bipartition_is_identical(self, case):
        graph, ufreq, weights = case
        bipart = GraphPartitioner(weights).partition(graph, ufreq)

        subset = reference_subset(weights, graph, ufreq)
        crossing, sides = reference_sides(graph, subset, ufreq)
        assert bipart.core0 == subset
        assert bipart.core1 == set(graph.vertices()) - subset
        assert bipart.connective_edges == crossing
        for piece, (side, orig, side_ufreq) in zip(
            (bipart.side0, bipart.side1), sides
        ):
            assert rows_of(piece.graph) == rows_of(side)
            assert piece.orig_vertices == orig
            assert piece.ufreq == side_ufreq

    @settings(max_examples=150, deadline=None)
    @given(partition_cases())
    def test_every_seed_walk_and_its_carried_cut(self, case):
        graph, ufreq, weights = case
        recording = RecordingWeights(weights.lambda1, weights.lambda2)
        partitioner = GraphPartitioner(recording)
        partitioner.partition(graph, ufreq)

        n = graph.num_vertices
        if n < 2 or graph.num_edges == 0:
            assert recording.seen == [] and partitioner.seeds_walked == 0
            return
        limit = max(1, n // 2)
        order = sorted(graph.vertices(), key=lambda v: (-ufreq[v], v))
        assert partitioner.seeds_walked == len(recording.seen) == limit
        for seed, (members, cut) in zip(order, recording.seen):
            assert members == reference_dfs_scan(graph, seed, limit, ufreq)
            assert members == dfs_scan(graph, seed, limit, ufreq)
            assert cut == len(cut_edges(graph, members))
            assert len(members) < n  # side 1 is never left empty

    def test_tie_that_summation_order_decides(self):
        # Found by search: walks that get stuck in small components give
        # subsets whose ufreq mean depends on the order the floats are
        # added in (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1); summing this case
        # in ascending-id order picks another subset than set order does.
        edges = [
            (0, 4), (2, 21), (3, 5), (5, 7), (6, 20), (7, 9), (8, 17),
            (10, 14), (10, 19), (11, 12), (12, 20), (13, 18), (15, 16),
            (15, 18), (17, 21),
        ]
        g = make_graph([0] * 22, [(u, v, 0) for u, v in edges])
        ufreq = [
            0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.3, 0.2, 0.2, 0.1,
            0.1, 0.1, 0.1, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1, 0.3, 0.2,
        ]
        bipart = GraphPartitioner(PARTITION1).partition(g, ufreq)
        assert bipart.core0 == reference_subset(PARTITION1, g, ufreq)

    def test_nonfinite_weights_fall_back_to_half_split(self):
        # Every cut is >= 1, so every weight is -inf and none is a strict
        # maximum: the first n // 2 vertices win though no walk joins them.
        g = make_graph([0] * 4, [(0, 2, 0), (2, 1, 0), (1, 3, 0)])
        bipart = GraphPartitioner(PartitionWeights(0.0, float("inf")))(
            g, [0.0] * 4
        )
        assert bipart.core0 == {0, 1}


class TestMetisPartitioner:
    def test_both_sides_nonempty(self):
        rng = random.Random(40)
        partitioner = MetisPartitioner()
        for _ in range(15):
            g = random_graph(rng, rng.randrange(4, 20), 4)
            bipart = partitioner(g, None)
            assert bipart.core0 and bipart.core1

    def test_barbell_cut(self):
        g = make_graph(
            [0] * 6,
            [
                (0, 1, 0), (1, 2, 0), (2, 0, 0),
                (2, 3, 0),
                (3, 4, 0), (4, 5, 0), (5, 3, 0),
            ],
        )
        bipart = MetisPartitioner()(g, None)
        assert bipart.num_connective_edges == 1

    def test_edge_union_recovers_graph(self):
        rng = random.Random(50)
        partitioner = MetisPartitioner()
        g = random_graph(rng, 12, 6)
        bipart = partitioner(g, None)
        recovered = set()
        for side in (bipart.side0, bipart.side1):
            for u, v, label in side.graph.edges():
                ou, ov = side.to_original(u), side.to_original(v)
                recovered.add((min(ou, ov), max(ou, ov), label))
        assert recovered == {
            (min(u, v), max(u, v), label) for u, v, label in g.edges()
        }

    def test_balance(self):
        # On a long path the bisection should be roughly balanced.
        g = path_graph(24)
        bipart = MetisPartitioner()(g, None)
        assert 6 <= len(bipart.core0) <= 18

    def test_trivial_graph(self):
        bipart = MetisPartitioner()(make_graph([0], []), None)
        assert bipart.side1.graph.num_vertices == 0
