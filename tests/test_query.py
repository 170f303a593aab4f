"""Tests for pattern queries (match / relocate / coverage)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.base import Pattern, PatternSet
from repro.mining.gspan import GSpanMiner
from repro.query import coverage, match, match_patterns

from .conftest import make_graph, path_graph, random_database, triangle
from .test_properties import databases


class TestMatch:
    def test_edge_in_triangle_occurrences(self):
        db = GraphDatabase.from_graphs([triangle()])
        edge = LabeledGraph.single_edge(0, 0, 0)
        result = match(edge, db)
        assert result.support == 1
        assert len(result.occurrences) == 6  # 3 edges x 2 orientations
        assert result.per_graph() == {0: 6}

    def test_mappings_are_valid(self):
        db = GraphDatabase.from_graphs([triangle(), path_graph(4)])
        pattern = path_graph(3)
        result = match(pattern, db)
        for occurrence in result.occurrences:
            graph = db[occurrence.gid]
            phi = dict(occurrence.mapping)
            for u, v, label in pattern.edges():
                assert graph.has_edge(phi[u], phi[v])
                assert graph.edge_label(phi[u], phi[v]) == label

    def test_occurrence_cap_keeps_support_exact(self):
        db = GraphDatabase.from_graphs([triangle(), triangle()])
        edge = LabeledGraph.single_edge(0, 0, 0)
        result = match(edge, db, max_occurrences_per_graph=1)
        assert result.support == 2
        assert len(result.occurrences) == 2

    def test_induced_match(self):
        db = GraphDatabase.from_graphs([triangle(), path_graph(3)])
        pattern = path_graph(3)
        plain = match(pattern, db)
        induced = match(pattern, db, induced=True)
        assert plain.supporting_gids == {0, 1}
        assert induced.supporting_gids == {1}

    def test_no_match(self):
        db = GraphDatabase.from_graphs([triangle()])
        result = match(triangle(labels=(9, 9, 9)), db)
        assert result.support == 0
        assert result.occurrences == []


class TestMatchPatterns:
    def test_relocation_recomputes_supports(self):
        source = random_database(seed=1100, num_graphs=8, n=6)
        mined = GSpanMiner().mine(source, 3)
        target = random_database(seed=1101, num_graphs=10, n=6)
        relocated = match_patterns(mined, target)
        truth = GSpanMiner().mine(target, 1)
        for p in relocated:
            q = truth.get(p.key)
            expected = q.tids if q is not None else frozenset()
            assert p.tids == expected

    def test_min_support_filters(self):
        source = random_database(seed=1102, num_graphs=8, n=6)
        mined = GSpanMiner().mine(source, 2)
        filtered = match_patterns(mined, source, min_support=4)
        assert all(p.support >= 4 for p in filtered)
        assert filtered.keys() <= mined.keys()

    def test_same_database_roundtrip(self):
        db = random_database(seed=1103, num_graphs=8, n=6)
        mined = GSpanMiner().mine(db, 3)
        relocated = match_patterns(mined, db)
        for p in relocated:
            assert p.tids == mined.get(p.key).tids


class TestCoverage:
    def test_full_coverage(self):
        db = GraphDatabase.from_graphs([triangle(), triangle()])
        patterns = PatternSet(
            [Pattern.from_graph(LabeledGraph.single_edge(0, 0, 0), [0, 1])]
        )
        fraction, covered = coverage(patterns, db)
        assert fraction == 1.0
        assert covered == {0, 1}

    def test_partial_coverage(self):
        db = GraphDatabase.from_graphs(
            [triangle(), make_graph([7, 7], [(0, 1, 7)])]
        )
        patterns = PatternSet([Pattern.from_graph(triangle(), [0])])
        fraction, covered = coverage(patterns, db)
        assert fraction == 0.5
        assert covered == {0}

    def test_empty_inputs(self):
        assert coverage(PatternSet(), GraphDatabase()) == (0.0, set())
        db = GraphDatabase.from_graphs([triangle()])
        assert coverage(PatternSet(), db) == (0.0, set())


class TestQueryAcceleration:
    """match_patterns/coverage: kernel, reference matcher and the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        source=databases(max_graphs=6, max_vertices=6),
        db=databases(max_graphs=6, max_vertices=6),
        induced=st.booleans(),
        min_support=st.sampled_from([None, 1, 2, 0.5]),
    )
    def test_match_patterns_accel_identical(
        self, source, db, induced, min_support
    ):
        patterns = GSpanMiner(max_size=3).mine(source, 2)
        # One vertex (no edge triple to filter on), present or absent
        # label; edge-free graphs have no canonical DFS code: key by hand.
        for label in (0, 9):
            dot = make_graph([label], [])
            patterns.add(Pattern(dot, ("v", label), 0, frozenset()))
        # Absent vertex label, absent edge label.
        for edge in (make_graph([0, 9], [(0, 1, 0)]),
                     make_graph([0, 1], [(0, 1, 7)])):
            patterns.add(Pattern.from_graph(edge, []))
        kernel = match_patterns(
            patterns, db, induced=induced, min_support=min_support
        )
        with perf.disabled():
            reference = match_patterns(
                patterns, db, induced=induced, min_support=min_support
            )
        threshold = 0 if min_support is None else db.absolute_support(
            min_support
        )
        oracle = {}
        for pattern in patterns:
            gids = match(
                pattern.graph, db, induced=induced, max_occurrences_per_graph=1
            ).supporting_gids
            if len(gids) >= threshold:
                oracle[pattern.key] = (len(gids), gids)
        for got in (kernel, reference):
            assert {p.key: (p.support, p.tids) for p in got} == oracle
        covered = set().union(*(gids for _, gids in oracle.values()))
        assert coverage(kernel, db, induced=induced)[1] == covered

    def test_vertex_only_pattern_matches_everywhere(self):
        target = random_database(seed=1250, num_graphs=5, n=5)
        dot = make_graph([0], [])
        # Edge-free graphs have no canonical DFS code; key by hand.
        patterns = PatternSet(
            [Pattern(graph=dot, key=("v", 0), support=1, tids=frozenset([0]))]
        )
        fast = match_patterns(patterns, target)
        with perf.disabled():
            slow = match_patterns(patterns, target)
        assert fast.keys() == slow.keys()
        for p in fast:
            assert p.tids == slow.get(p.key).tids
        want = match(dot, target, max_occurrences_per_graph=1)
        assert fast.get(("v", 0)).tids == want.supporting_gids
