"""Tests for pattern joins and the level support counter."""

from contextlib import nullcontext

from repro import perf
from repro.core.join import (
    SupportCounter,
    join_patterns,
    join_single_edges,
    pattern_edge_triples,
)
from repro.graph.canonical import canonical_code, min_dfs_code
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.base import Pattern

from .conftest import (
    deletion_core_graph,
    make_graph,
    path_graph,
    reads_code,
    triangle,
)


def pat(graph, tids=(0,)):
    return Pattern.from_graph(graph, tids)


class TestPatternEdgeTriples:
    def test_triples_normalized(self):
        g = make_graph([2, 1], [(0, 1, 5)])
        assert pattern_edge_triples(g) == {(1, 5, 2)}

    def test_triangle(self):
        assert pattern_edge_triples(triangle()) == {(0, 0, 0)}


class TestSupportCounter:
    def test_count_matches_direct(self, medium_db):
        counter = SupportCounter(medium_db)
        pattern = path_graph(3)
        support, tids = counter.count(pattern)
        from repro.graph.isomorphism import count_support

        want_support, want_tids = count_support(pattern, medium_db)
        assert (support, tids) == (want_support, want_tids)

    def test_known_tids_trusted(self, medium_db):
        counter = SupportCounter(medium_db)
        pattern = path_graph(3)
        _, true_tids = counter.count(pattern)
        counter2 = SupportCounter(medium_db)
        support, tids = counter2.count(pattern, known_tids=true_tids)
        assert tids == true_tids
        assert counter2.isomorphism_tests <= counter.isomorphism_tests

    def test_restrict_bounds_result(self, medium_db):
        counter = SupportCounter(medium_db)
        pattern = path_graph(2)
        _, all_tids = counter.count(pattern)
        some = frozenset(list(all_tids)[:2])
        support, tids = counter.count(pattern, restrict=some)
        assert tids == some & all_tids

    def test_candidate_gids_prunes_by_triples(self):
        g1 = make_graph([0, 0], [(0, 1, 0)])
        g2 = make_graph([1, 1], [(0, 1, 1)])
        db = GraphDatabase.from_graphs([g1, g2])
        counter = SupportCounter(db)
        assert counter.candidate_gids(g1) == {0}
        assert counter.candidate_gids(triangle(labels=(5, 5, 5))) == set()

    def test_edge_free_pattern_counted_on_every_graph(self):
        db = GraphDatabase.from_graphs(
            [make_graph([0, 0], [(0, 1, 0)]), make_graph([1], []),
             make_graph([1, 0], [(0, 1, 2)])]
        )
        for matcher in (nullcontext, perf.disabled):  # kernel, reference
            with matcher():
                counter = SupportCounter(db)
                assert counter.candidate_gids(make_graph([1], [])) == {0, 1, 2}
                assert counter.count(make_graph([1], [])) == (
                    2, frozenset({1, 2})
                )
                assert counter.count(make_graph([7], [])) == (0, frozenset())

    def test_count_induced(self):
        db = GraphDatabase.from_graphs([triangle(), path_graph(3)])
        counter = SupportCounter(db)
        assert counter.count(path_graph(3))[1] == {0, 1}
        assert counter.count(path_graph(3), induced=True)[1] == {1}


class TestJoinPatterns:
    def test_two_paths_give_triangle_and_more(self):
        p = pat(path_graph(3), tids=(0, 1))
        result = join_patterns([p], [p])
        keys = set(result)
        assert canonical_code(triangle()) in keys
        assert canonical_code(path_graph(4)) in keys

    def test_empty_inputs(self):
        assert join_patterns([], [pat(path_graph(3))]) == {}
        assert join_patterns([pat(path_graph(3))], []) == {}

    def test_seen_keys_skipped(self):
        p = pat(path_graph(3))
        everything = set(join_patterns([p], [p]))
        result = join_patterns([p], [p], seen=everything)
        assert result == {}

    def test_tid_bound_is_intersection(self):
        p = pat(path_graph(3), tids=(0, 1, 2))
        q = pat(path_graph(3), tids=(1, 2, 3))
        for _, (graph, bound) in join_patterns([p], [q]).items():
            assert bound == {1, 2}

    def test_disjoint_tids_generate_nothing(self):
        p = pat(path_graph(3), tids=(0,))
        q = pat(path_graph(3), tids=(1,))
        assert join_patterns([p], [q]) == {}

    def test_candidates_are_one_bigger(self):
        p = pat(triangle(), tids=(0, 1))
        for _, (graph, _) in join_patterns([p], [p]).items():
            assert graph.num_edges == 4

    def test_incompatible_labels_no_join(self):
        p = pat(path_graph(3, vlabel=0), tids=(0,))
        q = pat(path_graph(3, vlabel=1), tids=(0,))
        assert join_patterns([p], [q]) == {}


class TestJoinSingleEdges:
    def test_shared_vertex_label_joins(self):
        a = pat(LabeledGraph.single_edge(0, 0, 1), tids=(0,))
        b = pat(LabeledGraph.single_edge(1, 1, 2), tids=(0,))
        result = join_single_edges([a], [b])
        # They share vertex label 1: one 2-edge path exists.
        expected = make_graph([0, 1, 2], [(0, 1, 0), (1, 2, 1)])
        assert canonical_code(expected) in result

    def test_no_shared_labels(self):
        a = pat(LabeledGraph.single_edge(0, 0, 0), tids=(0,))
        b = pat(LabeledGraph.single_edge(1, 1, 1), tids=(0,))
        assert join_single_edges([a], [b]) == {}


class TestCoreCache:
    def test_cache_returns_consistent_instance(self):
        from repro.core.join import cached_deletion_cores, _CORE_CACHE

        p1 = pat(path_graph(3), tids=(0,))
        graph_a, cores_a = cached_deletion_cores(p1)
        # A different isomorphic instance hits the same cache entry.
        p2 = pat(path_graph(3), tids=(1,))
        graph_b, cores_b = cached_deletion_cores(p2)
        assert graph_a is graph_b
        assert cores_a is cores_b
        assert p1.key in _CORE_CACHE

    def test_cached_cores_index_into_cached_graph(self):
        from repro.core.join import cached_deletion_cores

        p = pat(triangle(labels=(1, 2, 3)), tids=(0,))
        graph, cores = cached_deletion_cores(p)
        for core in cores:
            code = min_dfs_code(deletion_core_graph(graph, core))
            for order in core.orders:
                assert reads_code(graph, order, code)


class TestOverlaySignatures:
    def test_shared_signatures_suppress_duplicates(self):
        from repro.graph.operations import (
            edge_deletion_cores,
            overlay_candidates,
        )

        # Uniform 3-path: both deletions give isomorphic 1-edge cores, so
        # different (donor, host) pairs regenerate the same attachments.
        p = path_graph(3)
        cores = edge_deletion_cores(p)
        shared = set()
        total = 0
        for donor in cores:
            for host in cores:
                total += len(
                    overlay_candidates(donor, host, p, shared)
                )
        fresh = sum(
            len(overlay_candidates(d, h, p))
            for d in cores
            for h in cores
        )
        assert total < fresh

    def test_signature_dedup_preserves_candidate_set(self):
        from repro.graph.canonical import canonical_code
        from repro.graph.operations import (
            edge_deletion_cores,
            overlay_candidates,
        )

        p = path_graph(4)
        cores = edge_deletion_cores(p)
        with_shared = set()
        shared = set()
        for donor in cores:
            for host in cores:
                for cand in overlay_candidates(donor, host, p, shared):
                    with_shared.add(canonical_code(cand))
        without = set()
        for donor in cores:
            for host in cores:
                for cand in overlay_candidates(donor, host, p):
                    without.add(canonical_code(cand))
        assert with_shared == without
