"""Cross-cutting edge cases: sparse gids, degenerate inputs, delay knobs."""

import time

import pytest

from repro.core.incremental import IncrementalPartMiner
from repro.core.partminer import PartMiner
from repro.graph.database import GraphDatabase
from repro.mining.adi.adimine import ADIMiner
from repro.mining.adi.storage import BlockStorage
from repro.mining.gspan import GSpanMiner
from repro.updates.model import RelabelVertex

from .conftest import random_database, random_graph, triangle
import random


def sparse_gid_database(seed=1000):
    """Gids are non-contiguous and unordered: 42, 7, 1003, ..."""
    rng = random.Random(seed)
    gids = [42, 7, 1003, 256, 99, 13, 777, 3]
    return GraphDatabase(
        (gid, random_graph(rng, 6, 2)) for gid in gids
    )


class TestSparseGids:
    def test_gspan_tids_use_real_gids(self):
        db = sparse_gid_database()
        result = GSpanMiner().mine(db, 3)
        valid = set(db.gids())
        for p in result:
            assert p.tids <= valid

    def test_partminer_exact_with_sparse_gids(self):
        db = sparse_gid_database()
        truth = GSpanMiner().mine(db, 3)
        result = PartMiner(k=3, unit_support="exact").mine(db, 3)
        assert result.patterns.keys() == truth.keys()
        for p in result.patterns:
            assert p.tids == truth.get(p.key).tids

    def test_incremental_with_sparse_gids(self):
        db = sparse_gid_database()
        inc = IncrementalPartMiner(
            k=2, unit_support="exact"
        )
        inc.initial_mine(db, 3)
        result = inc.apply_updates([RelabelVertex(1003, 0, 9)])
        truth = GSpanMiner().mine(inc.database, 3)
        assert result.patterns.keys() == truth.keys()

    def test_adimine_with_sparse_gids(self):
        db = sparse_gid_database()
        with ADIMiner() as miner:
            result = miner.mine(db, 3)
        assert result.keys() == GSpanMiner().mine(db, 3).keys()


class TestDegenerateDatabases:
    def test_single_graph_database(self):
        db = GraphDatabase.from_graphs([triangle()])
        result = PartMiner(k=2).mine(db, 1)
        truth = GSpanMiner().mine(db, 1)
        assert result.patterns.keys() == truth.keys()

    def test_database_of_single_edges(self):
        from repro.graph.labeled_graph import LabeledGraph

        db = GraphDatabase.from_graphs(
            [LabeledGraph.single_edge(0, 0, 1) for _ in range(5)]
        )
        result = PartMiner(k=2).mine(db, 3)
        assert len(result.patterns) == 1
        assert next(iter(result.patterns)).support == 5

    def test_no_frequent_patterns_at_all(self):
        from repro.graph.labeled_graph import LabeledGraph

        db = GraphDatabase.from_graphs(
            [LabeledGraph.single_edge(i, i, i) for i in range(4)]
        )
        result = PartMiner(k=2).mine(db, 2)
        assert len(result.patterns) == 0

    def test_identical_graphs(self):
        db = GraphDatabase.from_graphs([triangle()] * 6)
        result = PartMiner(k=2).mine(db, 6)
        truth = GSpanMiner().mine(db, 6)
        assert result.patterns.keys() == truth.keys()
        for p in result.patterns:
            assert p.support == 6


class TestReadDelay:
    def test_delay_slows_uncached_reads(self):
        with BlockStorage(
            page_size=32, cache_pages=0, read_delay=0.005
        ) as storage:
            page = storage.allocate()
            storage.write_page(page, b"x")
            start = time.perf_counter()
            for _ in range(10):
                storage.read_page(page)
            elapsed = time.perf_counter() - start
            assert elapsed >= 0.05

    def test_cache_hits_skip_delay(self):
        with BlockStorage(
            page_size=32, cache_pages=4, read_delay=0.05
        ) as storage:
            page = storage.allocate()
            storage.write_page(page, b"x")  # now cached
            start = time.perf_counter()
            for _ in range(20):
                storage.read_page(page)
            assert time.perf_counter() - start < 0.05

    def test_default_no_delay(self):
        with BlockStorage(page_size=32, cache_pages=0) as storage:
            page = storage.allocate()
            storage.write_page(page, b"x")
            start = time.perf_counter()
            for _ in range(100):
                storage.read_page(page)
            assert time.perf_counter() - start < 0.5


class TestMergeJoinThresholds:
    def test_threshold_one_keeps_everything_frequent(self):
        from repro.core.mergejoin import merge_join
        from repro.mining.bruteforce import BruteForceMiner
        from repro.partition.dbpartition import db_partition

        db = random_database(seed=1010, num_graphs=5, n=5)
        tree = db_partition(db, 2)
        miner = BruteForceMiner()
        left = miner.mine(tree.units()[0].database, 1)
        right = miner.mine(tree.units()[1].database, 1)
        merged = merge_join(db, left, right, 1)
        want = GSpanMiner().mine(db, 1)
        assert merged.keys() == want.keys()

    def test_threshold_above_database_size(self):
        from repro.core.mergejoin import merge_join
        from repro.mining.base import PatternSet

        db = random_database(seed=1011, num_graphs=4, n=5)
        merged = merge_join(db, PatternSet(), PatternSet(), 99)
        assert len(merged) == 0
