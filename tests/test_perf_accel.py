"""Differential tests: the acceleration layer is behaviour-preserving.

Every fast path in :mod:`repro.perf` — the flat kernel behind
``subgraph_exists`` / ``count_support``, its admit prefilter, and the
shared support cache — must return exactly what the unaccelerated
reference path returns: same verdicts, same supports, same TID lists,
same canonical keys.  These tests drive both paths over
hypothesis-generated inputs and compare them bit-for-bit.
"""

import uuid

from hypothesis import given, settings, strategies as st

from repro import perf
from repro.core.join import SupportCounter
from repro.core.mergejoin import MergeJoinStats, merge_join
from repro.core.partminer import PartMiner
from repro.graph.isomorphism import (
    count_support,
    find_embeddings,
    subgraph_exists,
    subgraph_exists_reference,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.gspan import GSpanMiner
from repro.perf.counters import COUNTERS

from .test_properties import connected_graphs, databases


def assert_same_patterns(got, want):
    assert got.keys() == want.keys()
    for p in got:
        q = want.get(p.key)
        assert p.support == q.support
        assert p.tids == q.tids


# ----------------------------------------------------------------------
# Matcher-level agreement
# ----------------------------------------------------------------------
class TestMatcherAgreement:
    @settings(max_examples=120, deadline=None)
    @given(
        connected_graphs(max_vertices=7),
        connected_graphs(max_vertices=5),
        st.booleans(),
    )
    def test_accel_equals_reference(self, target, pattern, induced):
        accel = subgraph_exists(pattern, target, induced=induced)
        reference = subgraph_exists_reference(
            pattern, target, induced=induced
        )
        assert accel == reference

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_vertices=6), st.booleans())
    def test_accel_reflexive(self, graph, induced):
        assert subgraph_exists(graph, graph, induced=induced)

    @settings(max_examples=60, deadline=None)
    @given(
        connected_graphs(max_vertices=7),
        connected_graphs(max_vertices=5),
        st.booleans(),
    )
    def test_accel_agrees_with_full_enumeration(
        self, target, pattern, induced
    ):
        any_embedding = any(
            True
            for _ in find_embeddings(pattern, target, limit=1, induced=induced)
        )
        assert (
            subgraph_exists(pattern, target, induced=induced)
            == any_embedding
        )

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_vertices=7), connected_graphs(max_vertices=5))
    def test_fingerprint_prefilter_sound(self, target, pattern):
        """An admit rejection (counted as ``quick_rejects`` /
        ``fingerprint_rejects``) never kills a real containment."""
        flat_target = perf.get_flat_graph(target)
        plan = perf.get_flat_plan(pattern)
        if perf.flat_admits(plan, flat_target) != perf.ADMIT:
            assert not subgraph_exists_reference(pattern, target)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_vertices=6))
    def test_plan_and_flat_graph_invalidate_on_mutation(self, graph):
        plan = perf.get_flat_plan(graph)
        flat_graph = perf.get_flat_graph(graph)
        assert perf.get_flat_plan(graph) is plan
        assert perf.get_flat_graph(graph) is flat_graph
        graph.set_vertex_label(0, 99)
        assert perf.get_flat_plan(graph) is not plan
        assert perf.get_flat_graph(graph) is not flat_graph
        assert subgraph_exists(graph, graph)

    def test_mutating_the_target_changes_the_verdict(self):
        """Two calls on one target instance around a mutation: a stale
        cached flat form would repeat the first verdict."""
        pattern = LabeledGraph()
        pattern.add_vertex("a")
        pattern.add_vertex("b")
        pattern.add_edge(0, 1, "x")
        target = LabeledGraph()
        target.add_vertex("a")
        target.add_vertex("c")
        target.add_edge(0, 1, "x")
        assert not subgraph_exists(pattern, target)
        target.set_vertex_label(1, "b")
        assert subgraph_exists(pattern, target)
        extra = target.add_vertex("a")
        target.remove_edge(0, 1)
        assert not subgraph_exists(pattern, target)
        target.add_edge(extra, 1, "x")
        assert subgraph_exists(pattern, target)

    def test_plan_compiled_before_the_target_interned_its_labels(self):
        """The pattern's plan may predate every flat graph carrying its
        labels; the single-pair entry must not serve the stale
        "unmatchable" mark."""
        label = f"never-interned-{uuid.uuid4()}"
        pattern = LabeledGraph()
        pattern.add_vertex(label)
        assert perf.get_flat_plan(pattern).unmatchable
        target = LabeledGraph()
        target.add_vertex(label)
        assert subgraph_exists(pattern, target)


# ----------------------------------------------------------------------
# Support-counting agreement
# ----------------------------------------------------------------------
class TestSupportAgreement:
    @settings(max_examples=40, deadline=None)
    @given(
        databases(max_graphs=6, max_vertices=6),
        connected_graphs(max_vertices=4),
        st.booleans(),
    )
    def test_count_support_accel_equals_baseline(self, db, pattern, induced):
        with perf.disabled():
            want = count_support(pattern, db, induced=induced)
        assert count_support(pattern, db, induced=induced) == want

    @settings(max_examples=40, deadline=None)
    @given(
        databases(max_graphs=6, max_vertices=6),
        connected_graphs(max_vertices=4),
        st.booleans(),
    )
    def test_count_support_cached_equals_uncached(self, db, pattern, induced):
        cache = perf.SupportCache()
        want = count_support(pattern, db, induced=induced)
        cold = count_support(pattern, db, induced=induced, cache=cache)
        warm = count_support(pattern, db, induced=induced, cache=cache)
        assert cold == want
        assert warm == want
        assert cache.hits > 0  # second pass was served from the cache

    @settings(max_examples=30, deadline=None)
    @given(
        databases(max_graphs=6, max_vertices=6),
        connected_graphs(max_vertices=4),
    )
    def test_support_counter_accel_equals_baseline(self, db, pattern):
        with perf.disabled():
            want = SupportCounter(db).count(pattern)
        counter = SupportCounter(db, cache=perf.SupportCache())
        assert counter.count(pattern) == want
        assert counter.count(pattern) == want  # cached second pass

    @settings(max_examples=30, deadline=None)
    @given(
        databases(max_graphs=6, max_vertices=6),
        connected_graphs(max_vertices=4),
    )
    def test_candidate_gids_superset_of_support(self, db, pattern):
        """Triple-index filtering never drops a supporting graph."""
        counter = SupportCounter(db)
        candidates = counter.candidate_gids(pattern)
        with perf.disabled():
            _, tids = count_support(pattern, db)
        assert tids <= candidates


# ----------------------------------------------------------------------
# Miner-level agreement
# ----------------------------------------------------------------------
class TestMinerAgreement:
    @settings(max_examples=10, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5), st.integers(2, 3))
    def test_merge_join_accel_equals_baseline(self, db, threshold):
        left = GSpanMiner().mine(db, threshold)
        right = GSpanMiner().mine(db, max(2, threshold - 1))
        with perf.disabled():
            want = merge_join(db, left, right, threshold)
        stats = MergeJoinStats()
        got = merge_join(
            db,
            left,
            right,
            threshold,
            stats=stats,
            support_cache=perf.SupportCache(),
        )
        assert_same_patterns(got, want)
        assert stats.vf2_tests <= stats.isomorphism_tests

    @settings(max_examples=8, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5), st.integers(2, 4))
    def test_partminer_accel_equals_baseline(self, db, k):
        with perf.disabled():
            want = PartMiner(k=k, unit_support="exact").mine(db, 2).patterns
        got = PartMiner(k=k, unit_support="exact").mine(db, 2).patterns
        assert_same_patterns(got, want)


# ----------------------------------------------------------------------
# The global switch
# ----------------------------------------------------------------------
class TestEnableSwitch:
    def test_disabled_context_restores(self):
        assert perf.enabled()
        with perf.disabled():
            assert not perf.enabled()
            with perf.disabled():
                assert not perf.enabled()
            assert not perf.enabled()
        assert perf.enabled()

    def test_set_enabled_returns_previous(self):
        previous = perf.set_enabled(False)
        try:
            assert previous is True
            assert not perf.enabled()
        finally:
            perf.set_enabled(previous)
        assert perf.enabled()

    def test_disabled_subgraph_exists_uses_reference(self):
        g = LabeledGraph()
        g.add_vertex(0)
        g.add_vertex(1)
        g.add_edge(0, 1, 0)
        with perf.disabled():
            before = COUNTERS.flat_searches
            assert subgraph_exists(g, g)
            assert COUNTERS.flat_searches == before
        assert subgraph_exists(g, g)
        assert COUNTERS.flat_searches == before + 1
