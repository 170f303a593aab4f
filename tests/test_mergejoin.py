"""Tests for the MergeJoin procedure (paper Fig 11)."""

import random

from repro.core.mergejoin import MergeDelta, MergeJoinStats, merge_join
from repro.graph.database import GraphDatabase
from repro.mining.base import PatternSet
from repro.mining.bruteforce import BruteForceMiner
from repro.mining.gspan import GSpanMiner
from repro.partition.dbpartition import db_partition

from .conftest import random_database


def mine_units_exact(tree):
    """Mine each unit at support 1 (complete sets, Theorem 1 setting)."""
    miner = BruteForceMiner()
    return [miner.mine(unit.database, 1) for unit in tree.units()]


class TestLosslessRecovery:
    """Theorem 1/3: merge-join recovers the complete frequent set."""

    def test_recovers_gspan_result_k2(self):
        for seed in range(4):
            db = random_database(seed=seed + 200, num_graphs=8, n=6)
            tree = db_partition(db, 2)
            left, right = mine_units_exact(tree)
            for threshold in (2, 3):
                merged = merge_join(db, left, right, threshold)
                want = GSpanMiner().mine(db, threshold)
                assert merged.keys() == want.keys()

    def test_exact_supports_and_tids(self):
        db = random_database(seed=300, num_graphs=8, n=6)
        tree = db_partition(db, 2)
        left, right = mine_units_exact(tree)
        merged = merge_join(db, left, right, 2)
        want = GSpanMiner().mine(db, 2)
        for p in merged:
            q = want.get(p.key)
            assert q is not None
            assert p.support == q.support
            assert p.tids == q.tids

    def test_no_false_positives_even_with_reduced_unit_support(self):
        db = random_database(seed=301, num_graphs=10, n=7)
        tree = db_partition(db, 2)
        miner = GSpanMiner()
        left = miner.mine(tree.units()[0].database, 2)
        right = miner.mine(tree.units()[1].database, 2)
        merged = merge_join(db, left, right, 4)
        want = GSpanMiner().mine(db, 4)
        assert merged.keys() <= want.keys()


class TestStrictPaperJoins:
    def test_strict_is_subset_of_full(self):
        db = random_database(seed=302, num_graphs=8, n=7)
        tree = db_partition(db, 2)
        left, right = mine_units_exact(tree)
        full = merge_join(db, left, right, 2)
        strict = merge_join(db, left, right, 2, strict_paper_joins=True)
        assert strict.keys() <= full.keys()


class TestDeltaRecount:
    """``merge_join(delta=...)``: the incremental path (paper Fig 12)."""

    @staticmethod
    def relabel_one_graph(db, gid):
        """The database with one graph re-labelled, and what that touched."""
        from repro.core.join import pattern_edge_triples

        after = db.copy(deep=True)
        graph = after[gid]
        graph.set_vertex_label(0, 7)
        for u, v, label in list(graph.edges())[:1]:
            graph.set_edge_label(u, v, 5)
        # Over-approximating the gained edges is sound: every triple.
        return after, {gid: pattern_edge_triples(graph)}

    def test_recount_searches_touched_graphs_only(self):
        db = random_database(seed=303, num_graphs=8, n=6)
        tree = db_partition(db, 2)
        left, right = mine_units_exact(tree)
        baseline = merge_join(db, left, right, 2)
        after, touched = self.relabel_one_graph(db, 3)
        tree = db_partition(after, 2)
        new_left, new_right = mine_units_exact(tree)
        stats = MergeJoinStats()
        again = merge_join(
            after, new_left, new_right, 2, stats=stats,
            delta=MergeDelta(baseline, left, right, touched),
        )
        fresh_stats = MergeJoinStats()
        fresh = merge_join(after, new_left, new_right, 2, stats=fresh_stats)
        assert again.keys() == fresh.keys()
        assert stats.known_reused > 0
        # One touched graph: a recount enters at most one search per
        # old pattern, and the whole merge far fewer than a fresh one.
        assert stats.recount_searches <= stats.known_reused
        assert stats.vf2_tests < fresh_stats.vf2_tests

    def test_recounted_supports_exact(self):
        db = random_database(seed=304, num_graphs=6, n=5)
        tree = db_partition(db, 2)
        left, right = mine_units_exact(tree)
        baseline = merge_join(db, left, right, 2)
        after, touched = self.relabel_one_graph(db, 2)
        tree = db_partition(after, 2)
        new_left, new_right = mine_units_exact(tree)
        again = merge_join(
            after, new_left, new_right, 2,
            delta=MergeDelta(baseline, left, right, touched),
        )
        want = GSpanMiner().mine(after, 2)
        assert again.keys() == want.keys()
        for p in again:
            assert p.tids == want.get(p.key).tids

    def test_untouched_delta_changes_nothing(self):
        db = random_database(seed=309, num_graphs=6, n=5)
        tree = db_partition(db, 2)
        left, right = mine_units_exact(tree)
        baseline = merge_join(db, left, right, 2)
        stats = MergeJoinStats()
        again = merge_join(
            db, left, right, 2, stats=stats,
            delta=MergeDelta(baseline, left, right, {}),
        )
        assert {p.key: p.tids for p in again} == {
            p.key: p.tids for p in baseline
        }
        assert stats.known_reused > 0
        assert stats.recount_searches == 0
        assert stats.candidates_generated == 0


class TestBehaviour:
    def test_max_size_bound(self):
        db = random_database(seed=305, num_graphs=6, n=6)
        tree = db_partition(db, 2)
        left, right = mine_units_exact(tree)
        merged = merge_join(db, left, right, 2, max_size=2)
        assert merged.max_size() <= 2

    def test_empty_children(self):
        db = random_database(seed=306, num_graphs=4, n=5)
        merged = merge_join(db, PatternSet(), PatternSet(), 2)
        # Only the direct 1-edge scan contributes.
        assert all(p.size == 1 for p in merged)

    def test_stats_populated(self):
        db = random_database(seed=307, num_graphs=8, n=6)
        tree = db_partition(db, 2)
        left, right = mine_units_exact(tree)
        stats = MergeJoinStats()
        merge_join(db, left, right, 2, stats=stats)
        assert stats.carried_patterns > 0
        assert stats.rounds > 0
        assert stats.isomorphism_tests > 0

    def test_apriori_pruning_drops_dead_carried(self):
        # Right child contains a pattern with an edge label that is not
        # frequent in the parent: it must be pruned (Fig 11 lines 2-3).
        db = random_database(seed=308, num_graphs=6, n=5)
        tree = db_partition(db, 2)
        left, right = mine_units_exact(tree)
        from repro.graph.labeled_graph import LabeledGraph
        from repro.mining.base import Pattern

        alien = Pattern.from_graph(
            LabeledGraph.from_vertices_and_edges(
                [99, 99, 99], [(0, 1, 99), (1, 2, 99)]
            ),
            tids=(0,),
        )
        right.add(alien)
        stats = MergeJoinStats()
        merged = merge_join(db, left, right, 2, stats=stats)
        assert alien.key not in merged.keys()
        assert stats.carried_pruned >= 1
