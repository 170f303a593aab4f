"""Differential tests for the query engine (repro.serve.engine).

The engine's contract is byte-identical answers to the unindexed
:mod:`repro.query` path, for both monomorphism and induced semantics —
every test here pins a served answer against the linear-scan baseline.
"""

import pytest
from hypothesis import given, settings

from repro import perf, query
from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import subgraph_exists
from repro.mining.base import Pattern, PatternSet
from repro.mining.gspan import GSpanMiner
from repro.resilience.health import Deadline
from repro.serve.catalog import CatalogSnapshot, catalog_order
from repro.serve.engine import QueryEngine
from repro.serve.index import FragmentIndex, graph_digest

from .conftest import make_graph, random_database
from .test_properties import databases


def make_snapshot(patterns, db=None, version=1):
    ordered = catalog_order(patterns)
    index = FragmentIndex.build((p.graph for p in ordered), db)
    return CatalogSnapshot(version, patterns, index, {})


def mined_engine(seed=6100, num_graphs=8, min_support=3, db=None, **kwargs):
    mine_db = random_database(seed=seed, num_graphs=num_graphs)
    patterns = GSpanMiner().mine(mine_db, min_support)
    serve_db = db if db is not None else mine_db
    snapshot = make_snapshot(patterns, serve_db)
    return QueryEngine(snapshot, serve_db, **kwargs), patterns, serve_db


def assert_same_patterns(got, want):
    assert got.keys() == want.keys()
    for p in got:
        q = want.get(p.key)
        assert p.support == q.support
        assert p.tids == q.tids


class TestMatchDifferential:
    @pytest.mark.parametrize("induced", [False, True])
    def test_match_equals_query_match(self, induced):
        engine, patterns, db = mined_engine(seed=6201)
        for pattern in patterns:
            answer = engine.match(pattern.graph, induced=induced)
            baseline = query.match(pattern.graph, db, induced=induced)
            assert answer.gids == baseline.supporting_gids
            assert answer.support == baseline.support

    @pytest.mark.parametrize("induced", [False, True])
    def test_relocate_equals_match_patterns(self, induced):
        other_db = random_database(seed=6300, num_graphs=10)
        engine, patterns, _ = mined_engine(seed=6202, db=other_db)
        got = engine.relocate(induced=induced, min_support=2)
        with perf.disabled():
            want = query.match_patterns(
                patterns, other_db, induced=induced, min_support=2
            )
        assert_same_patterns(got, want)

    def test_relocate_external_patterns(self):
        engine, _, db = mined_engine(seed=6203)
        external = GSpanMiner().mine(
            random_database(seed=6301, num_graphs=6), 2
        )
        got = engine.relocate(external)
        with perf.disabled():
            want = query.match_patterns(external, db)
        assert_same_patterns(got, want)

    def test_no_accel_engine_identical(self):
        accel, patterns, db = mined_engine(seed=6204)
        linear, _, _ = mined_engine(seed=6204)
        for pattern in patterns:
            with perf.disabled():
                want = linear.match(pattern.graph).gids
            assert accel.match(pattern.graph).gids == want
        # The linear engine really scanned: no pruning happened.
        assert linear.totals.candidates == linear.totals.universe

    @pytest.mark.parametrize("induced", [False, True])
    def test_deadline_match_equals_batched_match(self, induced):
        """A deadline-bearing match scans one gid per call; same gids."""
        batched, patterns, db = mined_engine(seed=6206)
        per_gid, _, _ = mined_engine(seed=6206)
        for pattern in patterns:
            want = batched.match(pattern.graph, induced=induced)
            got = per_gid.match(
                pattern.graph, induced=induced, deadline=Deadline.after(60)
            )
            assert got.gids == want.gids
            assert got.stats.searches == want.stats.searches

    def test_index_strictly_prunes(self):
        engine, patterns, db = mined_engine(seed=6205)
        # A pattern with labels absent from the database: zero candidates.
        alien = make_graph([9, 9], [(0, 1, 9)])
        answer = engine.match(alien)
        assert answer.gids == frozenset()
        assert answer.stats.searches == 0
        assert answer.stats.pruned == len(db)


class TestContainsDifferential:
    @pytest.mark.parametrize("induced", [False, True])
    def test_contains_equals_direct_checks(self, induced):
        engine, _, db = mined_engine(seed=6401)
        entries = engine.snapshot.entries
        for _, graph in db:
            answer = engine.contains(graph, induced=induced)
            expected = tuple(
                e.pid
                for e in entries
                if subgraph_exists(e.graph, graph, induced=induced)
            )
            assert answer.pids == expected

    @pytest.mark.parametrize("induced", [False, True])
    def test_coverage_equals_query_coverage(self, induced):
        engine, patterns, db = mined_engine(seed=6402, min_support=4)
        fraction, covered = engine.coverage(induced=induced)
        with perf.disabled():
            want_fraction, want_covered = query.coverage(
                patterns, db, induced=induced
            )
        assert fraction == want_fraction
        assert covered == want_covered


class TestCaching:
    def test_lru_hit_on_repeat_match(self):
        engine, patterns, _ = mined_engine(seed=6501)
        pattern = next(iter(patterns)).graph
        first = engine.match(pattern)
        second = engine.match(pattern)
        assert not first.stats.lru_hit
        assert second.stats.lru_hit
        assert second.stats.searches == 0
        assert second.gids == first.gids
        assert engine.totals.lru_hits == 1

    def test_lru_respects_semantics(self):
        engine, patterns, _ = mined_engine(seed=6502)
        pattern = next(iter(patterns)).graph
        engine.match(pattern, induced=False)
        assert not engine.match(pattern, induced=True).stats.lru_hit

    def test_lru_invalidated_by_database_mutation(self):
        engine, patterns, db = mined_engine(seed=6503)
        pattern = next(iter(patterns)).graph
        engine.match(pattern)
        db[0].add_vertex(9)
        answer = engine.match(pattern)
        assert not answer.stats.lru_hit

    def test_same_shape_replacement_is_answered_afresh(self):
        """A fresh graph with the old one's vertex and edge counts carries
        the same version counter; the answer must still move with it."""
        edge = make_graph([0, 0], [(0, 1, 0)])
        db = GraphDatabase.from_graphs([
            make_graph([1, 1, 1], [(0, 1, 0), (1, 2, 0)]),
            make_graph([0, 0, 0], [(0, 1, 0), (1, 2, 0)]),
        ])
        patterns = PatternSet([Pattern.from_graph(edge, [1])])
        engine = QueryEngine(make_snapshot(patterns, db), db)
        assert engine.match(edge).gids == {1}
        replacement = make_graph([0, 0, 0], [(0, 1, 0), (1, 2, 0)])
        assert replacement.version == db[0].version
        db.replace(0, replacement)
        answer = engine.match(edge)
        assert not answer.stats.lru_hit
        assert answer.gids == {0, 1}

    def test_stale_gids_once_per_database_state(self, monkeypatch):
        engine, patterns, db = mined_engine(seed=6506)
        index = engine.snapshot.index
        calls = []

        def counted(database):
            calls.append(database)
            return type(index).stale_gids(index, database)

        monkeypatch.setattr(index, "stale_gids", counted)
        for pattern in patterns:
            engine.match(pattern.graph)
        assert len(calls) == 1
        db[0].add_vertex(9)
        engine.match(next(iter(patterns)).graph)
        assert len(calls) == 2

    def test_flat_db_validated_once_per_database_state(self, monkeypatch):
        engine, patterns, db = mined_engine(seed=6507)
        perf.get_flat_db(db)  # compiled: later calls validate it
        calls = []
        validate = perf.FlatDB.stale_gids

        def counted(flat, database):
            calls.append(database)
            return validate(flat, database)

        monkeypatch.setattr(perf.FlatDB, "stale_gids", counted)
        for pattern in patterns:
            engine.match(pattern.graph)
        assert len(calls) == 1
        db[0].add_vertex(9)
        for pattern in patterns:
            engine.match(pattern.graph)
        assert len(calls) == 2

    def test_contains_lru_hits_a_byte_identical_copy(self):
        engine, _, db = mined_engine(seed=6508)
        first = engine.contains(db[0])
        again = engine.contains(db[0].copy())
        assert not first.stats.lru_hit
        assert again.stats.lru_hit
        assert again.pids == first.pids

    def test_contains_renumbered_copy_is_answered_afresh(self):
        engine, _, db = mined_engine(seed=6509)
        graph = db[0]
        n = graph.num_vertices
        renumbered = make_graph(
            [graph.vertex_label(v) for v in reversed(range(n))],
            [(n - 1 - u, n - 1 - v, label) for u, v, label in graph.edges()],
        )
        assert graph_digest(renumbered) != graph_digest(graph)
        first = engine.contains(graph)
        answer = engine.contains(renumbered)
        assert not answer.stats.lru_hit
        assert answer.pids == first.pids

    @pytest.mark.parametrize("induced", [False, True])
    def test_contains_after_in_place_mutation_is_exact(self, induced):
        engine, _, db = mined_engine(seed=6510)
        graph = db[1].copy()
        engine.contains(graph, induced=induced)
        graph.add_vertex(graph.vertex_label(0))
        graph.add_edge(0, graph.num_vertices - 1, 0)
        answer = engine.contains(graph, induced=induced)
        assert not answer.stats.lru_hit
        assert answer.pids == tuple(
            e.pid
            for e in engine.snapshot.entries
            if subgraph_exists(e.graph, graph, induced=induced)
        )

    def test_lru_bounded(self):
        engine, patterns, _ = mined_engine(seed=6504, lru_size=2)
        graphs = [p.graph for p in patterns][:4]
        assert len(graphs) >= 3
        for graph in graphs:
            engine.match(graph)
        assert len(engine._lru) <= 2

    def test_support_cache_shared_between_queries(self):
        engine, _, db = mined_engine(seed=6505)
        for _, graph in db:
            engine.contains(graph)
        searched = engine.totals.searches
        # coverage re-asks the same (pattern, graph) pairs: all cache hits.
        engine.coverage()
        assert engine.totals.searches == searched
        assert engine.totals.support_cache_hits > 0


class TestDriftSoundness:
    @pytest.mark.parametrize("induced", [False, True])
    def test_mutated_graphs_still_answered_exactly(self, induced):
        engine, patterns, db = mined_engine(seed=6601)
        # Mutate one graph in place and replace another wholesale —
        # the index postings for both are now stale.
        target = db[0]
        target.add_vertex(target.vertex_label(0))
        target.add_edge(0, target.num_vertices - 1, 0)
        db.replace(1, make_graph([9], []))
        for pattern in patterns:
            answer = engine.match(pattern.graph, induced=induced)
            baseline = query.match(pattern.graph, db, induced=induced)
            assert answer.gids == baseline.supporting_gids

    def test_added_graph_is_searched(self):
        engine, patterns, db = mined_engine(seed=6602)
        pattern = next(iter(patterns)).graph
        db.add(777, pattern.copy())
        assert 777 in engine.match(pattern).gids


class TestMetadata:
    def test_top_k_by_support(self):
        engine, _, _ = mined_engine(seed=6701)
        top = engine.top_k(3)
        supports = [e.support for e in top]
        assert supports == sorted(supports, reverse=True)
        assert len(top) == 3

    def test_top_k_by_size(self):
        engine, _, _ = mined_engine(seed=6702)
        sizes = [e.size for e in engine.top_k(5, by="size")]
        assert sizes == sorted(sizes, reverse=True)

    def test_top_k_rejects_unknown_key(self):
        engine, _, _ = mined_engine(seed=6703)
        with pytest.raises(ValueError, match="top_k"):
            engine.top_k(3, by="color")

    def test_top_k_rejects_a_negative_k(self):
        engine, _, _ = mined_engine(seed=6703)
        assert engine.top_k(0) == []
        with pytest.raises(ValueError, match="whole number >= 0"):
            engine.top_k(-1)

    def test_stats_dict_shape(self):
        engine, patterns, db = mined_engine(seed=6704)
        engine.match(next(iter(patterns)).graph)
        digest = engine.stats_dict()
        assert digest["queries"] == 1
        assert digest["patterns"] == len(patterns)
        assert digest["graphs"] == len(db)
        assert digest["by_kind"] == {"match": 1}
        assert digest["snapshot_version"] == 1


class TestEngineProperties:
    @settings(max_examples=40, deadline=None)
    @given(databases(max_graphs=5, max_vertices=6))
    def test_relocate_differential_property(self, db):
        patterns = GSpanMiner().mine(db, 2)
        if not patterns:
            return
        engine = QueryEngine(make_snapshot(patterns, db), db)
        for induced in (False, True):
            got = engine.relocate(induced=induced)
            with perf.disabled():
                want = query.match_patterns(patterns, db, induced=induced)
            assert_same_patterns(got, want)

    @settings(max_examples=40, deadline=None)
    @given(databases(max_graphs=5, max_vertices=6))
    def test_contains_differential_property(self, db):
        patterns = GSpanMiner().mine(db, 2)
        if not patterns:
            return
        engine = QueryEngine(make_snapshot(patterns, db), db)
        entries = engine.snapshot.entries
        for _, graph in db:
            answer = engine.contains(graph)
            expected = tuple(
                e.pid for e in entries if subgraph_exists(e.graph, graph)
            )
            assert answer.pids == expected
