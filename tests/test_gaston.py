"""Tests for the Gaston-style miner."""

import random

from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import count_support
from repro.mining.bruteforce import BruteForceMiner
from repro.mining.gaston import GastonMiner, PatternClass, classify
from repro.mining.gspan import GSpanMiner

from .conftest import make_graph, path_graph, random_database, star_graph, triangle


class TestClassify:
    def test_single_edge_is_path(self):
        assert classify(path_graph(2)) is PatternClass.PATH

    def test_long_path(self):
        assert classify(path_graph(6)) is PatternClass.PATH

    def test_star_is_tree(self):
        assert classify(star_graph(3)) is PatternClass.TREE

    def test_triangle_is_cyclic(self):
        assert classify(triangle()) is PatternClass.CYCLIC

    def test_tree_with_long_legs(self):
        g = make_graph(
            [0] * 5, [(0, 1, 0), (1, 2, 0), (1, 3, 0), (3, 4, 0)]
        )
        assert classify(g) is PatternClass.TREE

    def test_square_is_cyclic(self):
        g = make_graph([0] * 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)])
        assert classify(g) is PatternClass.CYCLIC


class TestAgainstGSpan:
    """Gaston and gSpan must produce identical results."""

    def test_small_db(self, small_db):
        for sup in (1, 2, 3):
            assert (
                GastonMiner().mine(small_db, sup).keys()
                == GSpanMiner().mine(small_db, sup).keys()
            )

    def test_random_dbs_with_tids(self):
        rng = random.Random(66)
        for seed in range(5):
            db = random_database(seed=seed + 100, num_graphs=9, n=7)
            sup = rng.choice([2, 3])
            gaston = GastonMiner().mine(db, sup)
            gspan = GSpanMiner().mine(db, sup)
            assert gaston.keys() == gspan.keys()
            for p in gaston:
                assert p.tids == gspan.get(p.key).tids

    def test_max_size_agreement(self, medium_db):
        assert (
            GastonMiner(max_size=3).mine(medium_db, 3).keys()
            == GSpanMiner(max_size=3).mine(medium_db, 3).keys()
        )


class TestPhases:
    def test_cyclic_patterns_found(self):
        db = GraphDatabase.from_graphs([triangle(), triangle()])
        result = GastonMiner().mine(db, 2)
        assert any(classify(p.graph) is PatternClass.CYCLIC for p in result)

    def test_tree_patterns_found(self):
        db = GraphDatabase.from_graphs([star_graph(3), star_graph(4)])
        result = GastonMiner().mine(db, 2)
        trees = [p for p in result if classify(p.graph) is PatternClass.TREE]
        assert trees  # the 3-star itself

    def test_supports_exact(self, medium_db):
        for p in GastonMiner().mine(medium_db, 3):
            support, tids = count_support(p.graph, medium_db)
            assert (p.support, p.tids) == (support, tids)

    def test_stats_counters(self, medium_db):
        miner = GastonMiner()
        result = miner.mine(medium_db, 3)
        assert miner.stats.patterns_found == len(result)
        assert miner.stats.duplicate_codes_pruned >= 0


def many_label_db(seed: int, num_graphs: int = 8) -> GraphDatabase:
    """Few larger graphs, most edge triples infrequent (the tx-front shape).

    Every graph plants one small cyclic core over labels 0-2, then hangs
    noise vertices with labels from a wide range off random vertices, so
    nearly every noise triple occurs in too few graphs to be frequent.
    """
    rng = random.Random(seed)
    graphs = []
    for _ in range(num_graphs):
        g = make_graph(
            [0, 1, 2, 1, 0],
            [(0, 1, 0), (1, 2, 1), (2, 0, 0), (2, 3, 1), (3, 4, 0)],
        )
        for _ in range(rng.randrange(6, 10)):
            v = g.add_vertex(rng.randrange(3, 40))
            g.add_edge(v, rng.randrange(v), rng.randrange(4))
        for _ in range(3):
            u, v = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v, rng.randrange(4))
        graphs.append(g)
    return GraphDatabase.from_graphs(graphs)


def as_records(patterns):
    return {p.key: (p.support, p.tids) for p in patterns}


class TestFrequentEdgeRestriction:
    """Growing over frequent edges only loses nothing (downward closure)."""

    def test_many_label_db_against_gspan_and_brute_force(self):
        for seed in range(4):
            db = many_label_db(seed)
            miner = GastonMiner()
            gaston = miner.mine(db, 0.5)
            # The shape under test: the filter drops most of the edges.
            dropped = miner.stats.extras["infrequent_edges"]
            assert dropped > db.total_edges() / 2
            assert any(p.size >= 5 for p in gaston)  # the planted core
            assert as_records(gaston) == as_records(GSpanMiner().mine(db, 0.5))

            bounded = GastonMiner(max_size=3).mine(db, 0.5)
            assert as_records(bounded) == as_records(
                BruteForceMiner(max_size=3).mine(db, 0.5)
            )

    def test_every_edge_frequent_drops_nothing(self):
        db = GraphDatabase.from_graphs([triangle(), triangle()])
        miner = GastonMiner()
        miner.mine(db, 2)
        assert miner.stats.extras["infrequent_edges"] == 0

    def test_max_size_one_and_two(self):
        db = many_label_db(seed=9)
        for max_size in (1, 2):
            miner = GastonMiner(max_size=max_size)
            result = miner.mine(db, 0.5)
            assert as_records(result) == as_records(
                BruteForceMiner(max_size=max_size).mine(db, 0.5)
            )
            assert result.max_size() == max_size
            assert miner.stats.patterns_found == len(result)


class TestMinerReuse:
    def test_two_databases_in_a_row_match_fresh_miners(self):
        first, second = many_label_db(seed=1), random_database(seed=7)
        reused = GastonMiner()
        results = [reused.mine(first, 0.5), reused.mine(second, 3)]
        expected = [
            GastonMiner().mine(first, 0.5), GastonMiner().mine(second, 3),
        ]
        for got, want in zip(results, expected):
            assert [p.key for p in got] == [p.key for p in want]
            assert as_records(got) == as_records(want)
        assert reused.stats.patterns_found == len(results[1])

    def test_no_per_run_tables_survive_mine(self):
        miner = GastonMiner(max_size=4)
        miner.mine(many_label_db(seed=2), 0.5)
        # Only the configuration and the counters: the row tables and
        # seed embeddings must be gone when mine returns (PartMiner keeps
        # the miner alive through merge-join).
        assert set(vars(miner)) == {"max_size", "stats"}
        assert set(miner.stats.extras) == {"infrequent_edges"}
