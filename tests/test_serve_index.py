"""Tests for the fragment index (repro.serve.index).

The index is a pure pruning device, so the load-bearing properties are
(1) soundness — no true supporter is ever filtered out — and (2) lossless
serialization.  Both are checked differentially / by round-trip here;
byte-identical *answers* are pinned in test_serve_engine.py.
"""

import pytest
from hypothesis import given, settings

from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import subgraph_exists
from repro.mining.gspan import GSpanMiner
from repro.resilience.errors import ArtifactRetired
from repro.serve.index import FragmentIndex, graph_fragments

from .conftest import make_graph, path_graph, random_database, triangle
from .test_properties import connected_graphs, databases


def mined_graphs(seed=4200, num_graphs=8, min_support=3):
    db = random_database(seed=seed, num_graphs=num_graphs)
    patterns = GSpanMiner().mine(db, min_support)
    return db, [p.graph for p in patterns]


class TestGraphFragments:
    def test_single_edge(self):
        edge = make_graph([1, 2], [(0, 1, 5)])
        assert graph_fragments(edge) == {("e", 1, 5, 2)}

    def test_path_has_one_path_fragment(self):
        path = path_graph(3, vlabel=0, elabel=0)
        fragments = graph_fragments(path)
        assert ("e", 0, 0, 0) in fragments
        assert ("p", 0, 0, 0, 0, 0) in fragments
        assert len(fragments) == 2

    def test_path_fragment_normalized(self):
        # 1 -a- 0 -b- 2 and its mirror produce the same fragment.
        left = make_graph([1, 0, 2], [(0, 1, 7), (1, 2, 8)])
        right = make_graph([2, 0, 1], [(0, 1, 8), (1, 2, 7)])
        assert graph_fragments(left) == graph_fragments(right)

    def test_isolated_vertex_has_no_fragments(self):
        single = make_graph([3], [])
        assert graph_fragments(single) == frozenset()

    def test_memoization_invalidated_by_mutation(self):
        graph = path_graph(3)
        before = graph_fragments(graph)
        assert graph_fragments(graph) is before  # cached
        graph.add_vertex(9)
        graph.add_edge(2, 3, 4)
        after = graph_fragments(graph)
        assert after != before
        assert ("e", 0, 4, 9) in after


class TestCandidateSoundness:
    """No graph/pattern truly containing the query may be pruned."""

    @pytest.mark.parametrize("induced", [False, True])
    def test_candidate_graphs_keep_all_supporters(self, induced):
        db, patterns = mined_graphs(seed=4301)
        index = FragmentIndex.build(patterns, db)
        for pattern in patterns:
            candidates = index.candidate_graphs(graph_fragments(pattern))
            assert candidates is not None
            for gid, graph in db:
                if subgraph_exists(pattern, graph, induced=induced):
                    assert gid in candidates

    @pytest.mark.parametrize("induced", [False, True])
    def test_candidate_patterns_keep_all_hits(self, induced):
        db, patterns = mined_graphs(seed=4302)
        index = FragmentIndex.build(patterns)
        for gid, graph in db:
            candidates = set(
                index.candidate_patterns(graph_fragments(graph))
            )
            for pid, pattern in enumerate(patterns):
                if subgraph_exists(pattern, graph, induced=induced):
                    assert pid in candidates

    def test_no_graph_side_returns_none(self):
        index = FragmentIndex.build([triangle()])
        assert index.candidate_graphs(graph_fragments(triangle())) is None
        assert index.graph_postings is None

    def test_fragment_free_pattern_never_pruned(self):
        db = GraphDatabase.from_graphs([triangle(), path_graph(2)])
        index = FragmentIndex.build([make_graph([0], [])], db)
        assert index.candidate_graphs(frozenset()) == {0, 1}
        # And a fragment-free pattern is always a contains-candidate.
        assert index.candidate_patterns(graph_fragments(triangle())) == [0]
        assert index.candidate_patterns(frozenset()) == [0]

    def test_unknown_fragment_prunes_everything(self):
        db = GraphDatabase.from_graphs([triangle()])
        index = FragmentIndex.build([triangle()], db)
        alien = make_graph([9, 9], [(0, 1, 9)])
        assert index.candidate_graphs(graph_fragments(alien)) == set()


class TestStaleness:
    def test_fresh_index_has_no_stale_gids(self):
        db = random_database(seed=4400, num_graphs=5)
        index = FragmentIndex.build([path_graph(2)], db)
        assert index.stale_gids(db) == set()

    def test_mutated_graph_goes_stale(self):
        db = random_database(seed=4401, num_graphs=5)
        index = FragmentIndex.build([path_graph(2)], db)
        db[2].add_vertex(7)
        assert index.stale_gids(db) == {2}

    def test_added_graph_goes_stale(self):
        db = random_database(seed=4402, num_graphs=3)
        index = FragmentIndex.build([path_graph(2)], db)
        db.add(99, triangle())
        assert index.stale_gids(db) == {99}

    def test_same_shape_relabel_goes_stale(self):
        db = random_database(seed=4404, num_graphs=3)
        index = FragmentIndex.build([path_graph(2)], db)
        labels = db[1].vertex_labels()
        labels[0] = 99
        fresh = make_graph(labels, list(db[1].edges()))
        assert fresh.version == db[1].version  # counts cannot tell them
        db.replace(1, fresh)
        assert index.stale_gids(db) == {1}

    def test_loaded_index_is_fresh_over_equal_content(self):
        db = random_database(seed=4405, num_graphs=4)
        index = FragmentIndex.build([path_graph(2)], db)
        loaded = FragmentIndex.from_dict(index.to_dict())
        assert loaded.stale_gids(db.copy(deep=True)) == set()

    def test_index_without_graphs_reports_all_stale(self):
        db = random_database(seed=4403, num_graphs=3)
        index = FragmentIndex.build([path_graph(2)])
        assert index.stale_gids(db) == set(db.gids())


class TestSerialization:
    def test_roundtrip_with_database(self, tmp_path):
        db, patterns = mined_graphs(seed=4500)
        index = FragmentIndex.build(patterns, db)
        assert FragmentIndex.from_dict(index.to_dict()) == index
        path = tmp_path / "index.json"
        index.save(path)
        assert FragmentIndex.load(path) == index

    def test_roundtrip_without_database(self, tmp_path):
        _, patterns = mined_graphs(seed=4501)
        index = FragmentIndex.build(patterns)
        back = FragmentIndex.from_dict(index.to_dict())
        assert back == index
        assert back.graph_postings is None

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            FragmentIndex.from_dict({"format": 99})

    def test_mutation_count_format_retired(self):
        with pytest.raises(ArtifactRetired, match="repro serve --patterns"):
            FragmentIndex.from_dict({"format": 1})

    def test_roundtrip_preserves_candidates(self, tmp_path):
        db, patterns = mined_graphs(seed=4502)
        index = FragmentIndex.build(patterns, db)
        path = tmp_path / "index.json"
        index.save(path)
        back = FragmentIndex.load(path)
        for pattern in patterns:
            fragments = graph_fragments(pattern)
            assert back.candidate_graphs(fragments) == (
                index.candidate_graphs(fragments)
            )
        for _, graph in db:
            fragments = graph_fragments(graph)
            assert back.candidate_patterns(fragments) == (
                index.candidate_patterns(fragments)
            )

    @settings(max_examples=60, deadline=None)
    @given(databases(max_graphs=5, max_vertices=6))
    def test_roundtrip_property(self, db):
        patterns = [graph for _, graph in db]
        index = FragmentIndex.build(patterns, db)
        assert FragmentIndex.from_dict(index.to_dict()) == index

    @settings(max_examples=60, deadline=None)
    @given(
        connected_graphs(max_vertices=6),
        databases(max_graphs=5, max_vertices=6),
    )
    def test_soundness_property(self, pattern, db):
        index = FragmentIndex.build([pattern], db)
        candidates = index.candidate_graphs(graph_fragments(pattern))
        for gid, graph in db:
            if subgraph_exists(pattern, graph):
                assert gid in candidates
