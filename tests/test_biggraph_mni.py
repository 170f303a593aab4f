"""MNI support semantics: differential tests against a brute-force oracle.

The oracle enumerates every embedding of a pattern in the *whole* graph
with the reference matcher and takes the minimum distinct-image count —
the textbook MNI definition, with no decomposition involved.  The
neighborhood-folded counter must agree exactly for patterns of radius
≤ r (the soundness guarantee) and never exceed it otherwise, under
both acceleration states (off / kernel).

Only two MNI paths exist behind that matrix: the accelerated one
(``perf.enabled()``: one rooted enumeration on the big graph's flat
form, visibility as a predicate) and the reference fold
(``perf.disabled()``: locate supporting units, fold their embeddings).
The second half of this module pins the first against the second —
radius > r patterns and restricted pivots included — and the predicate
itself on two hand-built graphs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.biggraph import (
    BigGraphMiner,
    MNISupport,
    NeighborhoodExtractor,
    pattern_radius,
)
from repro.graph.canonical import min_dfs_code
from repro.graph.isomorphism import count_support, find_embeddings
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.gspan import GSpanMiner

from .conftest import make_graph, path_graph, random_graph, star_graph
from .test_biggraph_miner import dump_text


def oracle_mni(pattern: LabeledGraph, graph: LabeledGraph) -> int:
    """Brute-force minimum-image support over the whole graph."""
    if pattern.num_vertices == 0:
        return 0
    images = [set() for _ in range(pattern.num_vertices)]
    for mapping in find_embeddings(pattern, graph):
        for pv, tv in mapping.items():
            images[pv].add(tv)
    return min(len(s) for s in images)


def accel_matrix():
    """The two acceleration states as (name, contextmanager factory)."""
    from contextlib import nullcontext

    return [
        ("off", perf.disabled),
        ("kernel", nullcontext),
    ]


def candidate_patterns(graph: LabeledGraph, max_size: int = 3):
    """Every pattern occurring in ``graph``, mined transactionally."""
    from repro.graph.database import GraphDatabase

    db = GraphDatabase.from_graphs([graph])
    return [p.graph for p in GSpanMiner(max_size=max_size).mine(db, 1)]


@st.composite
def connected_graphs(draw, max_vertices=8, vlabels=3, elabels=2):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = LabeledGraph()
    for _ in range(n):
        graph.add_vertex(draw(st.integers(0, vlabels - 1)))
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        graph.add_edge(v, parent, draw(st.integers(0, elabels - 1)))
    for _ in range(draw(st.integers(0, 3))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.integers(0, elabels - 1)))
    return graph


class TestPatternRadius:
    def test_known_shapes(self):
        assert pattern_radius(path_graph(2)) == 1
        assert pattern_radius(path_graph(3)) == 1  # center vertex
        assert pattern_radius(path_graph(4)) == 2
        assert pattern_radius(star_graph(5)) == 1
        assert pattern_radius(make_graph([0], [])) == 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            pattern_radius(make_graph([0, 0], []))


class TestMNIDifferential:
    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(), st.integers(1, 2))
    def test_matches_oracle_across_accel_matrix(self, graph, radius):
        db = NeighborhoodExtractor(radius=radius).extract(graph)
        for pattern in candidate_patterns(graph):
            canon = min_dfs_code(pattern).to_graph()
            expected = oracle_mni(canon, graph)
            rho = pattern_radius(canon)
            counts = {}
            for name, mode in accel_matrix():
                with mode():
                    counter = MNISupport(graph, db, radius)
                    counts[name] = counter.count(pattern)
            baseline = counts["off"]
            for name, count in counts.items():
                assert count.support == baseline.support, name
                assert count.min_image == baseline.min_image, name
                assert count.vertex == baseline.vertex, name
            if rho <= radius:
                assert baseline.support == expected
            else:
                assert baseline.support <= expected

    @settings(max_examples=10, deadline=None)
    @given(connected_graphs(max_vertices=7), st.integers(2, 3))
    def test_candidate_seed_equals_full_scan(self, graph, radius):
        # Seeding the locate phase with a TID superset must not change
        # the count — the optimization the miner's verify pass uses.
        db = NeighborhoodExtractor(radius=radius).extract(graph)
        counter = MNISupport(graph, db, radius)
        for pattern in candidate_patterns(graph, max_size=2):
            full = counter.count(pattern)
            seeded = counter.count(
                pattern, candidate_gids=set(db.gids())
            )
            assert seeded == full

    def test_zero_support_pattern(self):
        graph = path_graph(4, vlabel=0)
        db = NeighborhoodExtractor(radius=1).extract(graph)
        counter = MNISupport(graph, db, 1)
        absent = make_graph([7, 7], [(0, 1, 9)])
        count = counter.count(absent)
        assert count.support == 0
        assert count.min_image == frozenset()


def reference_count(graph, db, radius, pattern, **kwargs):
    with perf.disabled():
        return MNISupport(graph, db, radius).count(pattern, **kwargs)


class TestEnumerationVsReferenceFold:
    @settings(max_examples=30, deadline=None)
    @given(
        connected_graphs(max_vertices=9, vlabels=2, elabels=1),
        st.integers(1, 2),
        st.one_of(
            st.none(),
            st.frozensets(st.integers(0, 1), min_size=1, max_size=1),
        ),
    )
    def test_same_count_vertex_and_image(self, graph, radius, labels):
        db = NeighborhoodExtractor(
            radius=radius, pivot_labels=labels
        ).extract(graph)
        counter = MNISupport(graph, db, radius)
        for pattern in candidate_patterns(graph, max_size=4):
            assert counter.count(pattern) == reference_count(
                graph, db, radius, pattern
            )

    @pytest.mark.parametrize("labels", [None, frozenset([0])])
    def test_beyond_radius_patterns_on_a_chordal_graph(self, labels):
        rng = random.Random(17)
        graph = random_graph(rng, 24, extra_edges=30, num_vertex_labels=2)
        db = NeighborhoodExtractor(radius=1, pivot_labels=labels).extract(
            graph
        )
        counter = MNISupport(graph, db, 1)
        beyond = supported = 0
        for pattern in candidate_patterns(graph, max_size=4):
            count = counter.count(pattern)
            assert count == reference_count(graph, db, 1, pattern)
            if pattern_radius(pattern) > 1:
                beyond += 1
                supported += count.support > 0
                assert count.support <= oracle_mni(
                    min_dfs_code(pattern).to_graph(), graph
                )
        assert beyond and supported  # the lower-bound case is exercised
        assert counter.stats["invisible"] > 0

    @settings(max_examples=15, deadline=None)
    @given(connected_graphs(max_vertices=8, vlabels=2), st.integers(1, 2))
    def test_seeded_equals_unseeded(self, graph, radius):
        db = NeighborhoodExtractor(radius=radius).extract(graph)
        counter = MNISupport(graph, db, radius)
        for pattern in candidate_patterns(graph, max_size=4):
            full = counter.count(pattern)
            _support, exact = count_support(pattern, db)
            assert counter.count(pattern, candidate_gids=exact) == full
            superset = set(exact) | set(db.gids()[::2])
            assert counter.count(pattern, candidate_gids=superset) == full

    def test_chordless_path_is_invisible_at_radius_one(self):
        # No vertex of a chordless 4-path is within one hop of the other
        # three, so no 1-ball holds the embedding: MNI 0, although the
        # whole-graph MNI is 1 per label position.
        graph = make_graph(
            [0, 1, 2, 3], [(0, 1, 0), (1, 2, 0), (2, 3, 0)]
        )
        pattern = make_graph(
            [0, 1, 2, 3], [(0, 1, 0), (1, 2, 0), (2, 3, 0)]
        )
        assert pattern_radius(pattern) == 2
        db = NeighborhoodExtractor(radius=1).extract(graph)
        counter = MNISupport(graph, db, 1)
        assert counter.count(pattern).support == 0
        assert counter.stats["invisible"] > 0
        assert reference_count(graph, db, 1, pattern).support == 0
        assert oracle_mni(pattern, graph) == 1
        wide = NeighborhoodExtractor(radius=2).extract(graph)
        assert MNISupport(graph, wide, 2).count(pattern).support == 1

    def test_path_with_chords_to_a_hub_is_visible(self):
        # Same path, plus a hub adjacent to all four: the hub's 1-ball
        # holds the embedding, so it counts — but only while the hub
        # is a pivot.
        graph = make_graph(
            [0, 1, 2, 3, 9],
            [(0, 1, 0), (1, 2, 0), (2, 3, 0)]
            + [(v, 4, 5) for v in range(4)],
        )
        pattern = path_graph(4)
        for v in range(4):
            pattern.set_vertex_label(v, v)
        db = NeighborhoodExtractor(radius=1).extract(graph)
        count = MNISupport(graph, db, 1).count(pattern)
        assert count.support == 1
        assert count == reference_count(graph, db, 1, pattern)
        off_hub = NeighborhoodExtractor(
            radius=1, pivot_labels=frozenset([0, 1, 2, 3])
        ).extract(graph)
        count = MNISupport(graph, off_hub, 1).count(pattern)
        assert count.support == 0
        assert count == reference_count(graph, off_hub, 1, pattern)

    def test_verify_never_decodes_a_stored_neighborhood(self, tmp_path):
        from repro.storage import open_backend

        rng = random.Random(8)
        graph = random_graph(rng, 50, extra_edges=30, num_vertex_labels=2)
        resident = NeighborhoodExtractor(radius=1).extract(graph)
        candidates = GSpanMiner(max_size=3).mine(resident, 4)
        expected = MNISupport(graph, resident, 1).verify(candidates, 4)
        with open_backend("sqlite", tmp_path / "n.db") as backend:
            backend.import_database(resident)
            backend.checkpoint()
            stored = backend.database()
            before = backend.stats()["cache"]
            verified = MNISupport(graph, stored, 1).verify(candidates, 4)
            after = backend.stats()["cache"]
        assert (after["hits"], after["misses"]) == (
            before["hits"], before["misses"],
        )
        assert len(verified) > 0
        assert dump_text(verified) == dump_text(expected)


class TestGrowthMatchesDecomposition:
    """Growth on the big graph emits exactly the decomposition's answer:
    mine the neighborhood database transactionally at ``t``, then keep
    the candidates whose reference-fold MNI reaches ``t``."""

    @settings(max_examples=40, deadline=None)
    @given(
        connected_graphs(max_vertices=10, vlabels=2, elabels=2),
        st.integers(0, 2),
        st.one_of(
            st.none(),
            st.frozensets(st.integers(0, 1), min_size=1, max_size=1),
        ),
        st.integers(1, 3),
        st.integers(1, 4),
    )
    def test_dump_equals_mine_then_verify(
        self, graph, radius, labels, threshold, max_size
    ):
        with perf.disabled():
            database = NeighborhoodExtractor(
                radius=radius, pivot_labels=labels
            ).extract(graph)
            expected = GSpanMiner(max_size=max_size).mine(
                database, threshold
            )
            expected = MNISupport(graph, database, radius).verify(
                expected, threshold
            )
        miner = BigGraphMiner(
            radius=radius, pivot_labels=labels, max_size=max_size
        )
        for name, state in accel_matrix():
            with state():
                grown = miner.mine(graph, threshold)
            assert dump_text(grown.patterns) == dump_text(expected), name


class TestLowerBoundMarking:
    def test_header_and_verify_span_count_patterns_beyond_the_radius(self):
        from repro.obs import trace as obs_trace

        rng = random.Random(3)
        graph = random_graph(rng, 30, extra_edges=40, num_vertex_labels=2)
        tracer = obs_trace.Tracer()
        obs_trace.activate(tracer)
        try:
            result = BigGraphMiner(radius=1, max_size=4).mine(graph, 3)
        finally:
            obs_trace.activate(None)
        recount = sum(
            pattern_radius(p.graph) > 1 for p in result.patterns
        )
        assert recount > 0  # the fixture does produce radius-2 patterns
        assert result.meta()["lower_bound_patterns"] == recount
        assert "pivot_labels" not in result.meta()

        spans = tracer.spans()
        (run,) = [span for span in spans if span["name"] == "biggraph.mine"]
        assert run["attrs"]["lower_bound_patterns"] == recount
        assert run["attrs"]["patterns"] == len(result.patterns)
        grow = [span["attrs"] for span in spans
                if span["name"] == "biggraph.grow"]
        assert [attrs["size"] for attrs in grow] == [1, 2, 3, 4]
        assert sum(attrs["candidates"] for attrs in grow) == (
            result.candidates
        )
        assert sum(attrs["kept"] for attrs in grow) == len(result.patterns)
        total = {
            name: sum(attrs[name] for attrs in grow)
            for name in (
                "roots_tried", "embeddings", "visibility_checks", "invisible"
            )
        }
        assert total["embeddings"] > 0 and total["roots_tried"] > 0
        assert 0 < total["invisible"] <= total["visibility_checks"]

    def test_header_names_restricted_pivots(self):
        rng = random.Random(3)
        graph = random_graph(rng, 30, extra_edges=40, num_vertex_labels=2)
        anchored = BigGraphMiner(
            radius=1, max_size=2, pivot_labels=frozenset([1, 0])
        ).mine(graph, 3)
        assert anchored.meta()["pivot_labels"] == [0, 1]


class TestAccelMatrixByteIdentity:
    @pytest.mark.parametrize("seed", [2, 11])
    def test_full_runs_dump_identically(self, seed):
        rng = random.Random(seed)
        graph = random_graph(
            rng, 40, extra_edges=25, num_vertex_labels=3
        )
        dumps = {}
        for name, mode in accel_matrix():
            with mode():
                result = BigGraphMiner(radius=1, max_size=3).mine(
                    graph, 3
                )
                dumps[name] = dump_text(result.patterns)
        baseline = dumps["off"]
        assert len(baseline.splitlines()) > 1  # found something
        for name, text in dumps.items():
            assert text == baseline, name
