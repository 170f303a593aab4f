"""Tests for the PartMiner algorithm (paper Fig 11)."""

import contextlib
import gc
import weakref
from dataclasses import fields

import pytest

from repro.core import partminer as partminer_module
from repro.core.incremental import IncrementalPartMiner
from repro.core.partminer import PartMiner, resolve_unit_threshold
from repro.mining.gaston import GastonMiner
from repro.mining.gspan import GSpanMiner
from repro.partition.dbpartition import db_partition
from repro.partition.metis import MetisPartitioner
from repro.partition.weights import PARTITION2
from repro.partition.graphpart import GraphPartitioner
from repro.perf import enabled as accel_enabled
from repro.perf import flatgraph
from repro.runtime import RuntimeConfig
from repro.updates.generator import UpdateGenerator

from .conftest import random_database


class TestUnitThreshold:
    def test_paper_strategy_scales_with_depth(self):
        db = random_database(seed=400, num_graphs=4)
        tree = db_partition(db, 4)
        unit = tree.units()[0]
        assert resolve_unit_threshold(unit, 8, "paper") == 2
        assert resolve_unit_threshold(unit, 1, "paper") == 1

    def test_exact_strategy(self):
        db = random_database(seed=400, num_graphs=4)
        tree = db_partition(db, 2)
        assert resolve_unit_threshold(tree.units()[0], 8, "exact") == 1

    def test_fixed_strategy(self):
        db = random_database(seed=400, num_graphs=4)
        tree = db_partition(db, 2)
        assert resolve_unit_threshold(tree.units()[0], 8, 3) == 3

    def test_invalid_strategy(self):
        db = random_database(seed=400, num_graphs=4)
        tree = db_partition(db, 2)
        with pytest.raises(ValueError):
            resolve_unit_threshold(tree.units()[0], 8, "bogus")

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_paper_with_k_matches_depth_based_for_power_of_two_k(self, k):
        """``ceil(sup/k)`` (explicit k) and ``ceil(sup/2^depth)`` (the
        node's depth) are the same rule whenever k is a power of two —
        every unit of a balanced tree sits at depth log2(k)."""
        db = random_database(seed=401, num_graphs=16, n=6)
        tree = db_partition(db, k)
        for root_threshold in (1, 5, 8, 9, 16):
            for unit in tree.units():
                assert resolve_unit_threshold(
                    unit, root_threshold, "paper", k=k
                ) == resolve_unit_threshold(unit, root_threshold, "paper")

    def test_paper_with_k_uses_ceiling_division(self):
        """Non-power-of-two k: explicit ``k`` applies ceil(sup/k)
        regardless of the node's depth."""
        db = random_database(seed=402, num_graphs=9, n=5)
        tree = db_partition(db, 3)
        for unit in tree.units():
            assert resolve_unit_threshold(unit, 10, "paper", k=3) == 4
            assert resolve_unit_threshold(unit, 3, "paper", k=3) == 1

    def test_math_import_is_module_level(self):
        """Regression for the hoisted function-local ``import math``."""
        import math

        from repro.core import partminer

        assert partminer.math is math


class TestLosslessEquality:
    """PartMiner (exact unit support) == gSpan on the whole database."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exact_mode_equals_gspan(self, k):
        db = random_database(seed=401, num_graphs=10, n=6, extra_edges=1)
        truth = GSpanMiner().mine(db, 3)
        result = PartMiner(k=k, unit_support="exact").mine(db, 3)
        assert result.patterns.keys() == truth.keys()
        for p in result.patterns:
            assert p.tids == truth.get(p.key).tids

    def test_exact_mode_with_bruteforce_units(self):
        from repro.mining.bruteforce import BruteForceMiner

        db = random_database(seed=402, num_graphs=8, n=6)
        truth = GSpanMiner().mine(db, 2)
        result = PartMiner(
            k=2, unit_support="exact", miner_factory=BruteForceMiner
        ).mine(db, 2)
        assert result.patterns.keys() == truth.keys()

    def test_paper_mode_no_false_positives(self):
        db = random_database(seed=403, num_graphs=12, n=7)
        truth = GSpanMiner().mine(db, 3)
        result = PartMiner(k=2, unit_support="paper").mine(db, 3)
        assert result.patterns.keys() <= truth.keys()

    def test_paper_mode_high_recall(self):
        db = random_database(seed=404, num_graphs=12, n=7)
        truth = GSpanMiner().mine(db, 3)
        result = PartMiner(k=2, unit_support="paper").mine(db, 3)
        recall = len(result.patterns.keys() & truth.keys()) / len(truth)
        assert recall >= 0.95


class TestConfigurations:
    def test_metis_partitioner(self):
        db = random_database(seed=405, num_graphs=8, n=6)
        result = PartMiner(
            k=2, partitioner=MetisPartitioner(), unit_support="exact"
        ).mine(db, 3)
        truth = GSpanMiner().mine(db, 3)
        assert result.patterns.keys() == truth.keys()

    def test_partition2_criterion(self):
        db = random_database(seed=406, num_graphs=8, n=6)
        result = PartMiner(
            k=2,
            partitioner=GraphPartitioner(PARTITION2),
            unit_support="exact",
        ).mine(db, 3)
        truth = GSpanMiner().mine(db, 3)
        assert result.patterns.keys() == truth.keys()

    def test_gaston_units_default(self):
        miner = PartMiner(k=2)
        assert miner.miner_factory is GastonMiner

    def test_max_size(self):
        db = random_database(seed=407, num_graphs=8, n=6)
        result = PartMiner(k=2, max_size=2, unit_support="exact").mine(db, 2)
        assert result.patterns.max_size() <= 2

    def test_k1_degenerates_to_plain_mining(self):
        db = random_database(seed=408, num_graphs=8, n=6)
        result = PartMiner(k=1).mine(db, 3)
        truth = GSpanMiner().mine(db, 3)
        assert result.patterns.keys() == truth.keys()


class TestResultBookkeeping:
    def test_unit_results_and_times_align(self):
        db = random_database(seed=409, num_graphs=6, n=5)
        result = PartMiner(k=4, unit_support="paper").mine(db, 2)
        assert len(result.unit_results) == 4
        assert len(result.unit_times) == 4
        assert all(t >= 0 for t in result.unit_times)

    def test_node_results_cover_tree(self):
        db = random_database(seed=410, num_graphs=6, n=5)
        result = PartMiner(k=4, unit_support="paper").mine(db, 2)
        assert len(result.node_results) == 7  # full binary tree, 4 leaves

    def test_aggregate_ge_parallel(self):
        db = random_database(seed=411, num_graphs=8, n=6)
        result = PartMiner(k=4, unit_support="paper").mine(db, 2)
        assert result.aggregate_time >= result.parallel_time > 0

    def test_threshold_recorded(self):
        db = random_database(seed=412, num_graphs=10, n=5)
        result = PartMiner(k=2).mine(db, 0.3)
        assert result.threshold == 3

    def test_merge_stats_present_for_internal_nodes(self):
        db = random_database(seed=413, num_graphs=6, n=5)
        result = PartMiner(k=2).mine(db, 2)
        assert (0, 0) in result.merge_stats


class TestParallelUnits:
    """A ``runtime`` is the one switch to the process pool."""

    def test_parallel_units_matches_serial(self):
        db = random_database(seed=414, num_graphs=8, n=6)
        serial = PartMiner(k=2, unit_support="exact").mine(db, 3)
        parallel = PartMiner(
            k=2, unit_support="exact", runtime=RuntimeConfig()
        ).mine(db, 3)
        assert parallel.patterns.keys() == serial.patterns.keys()
        assert serial.telemetry is None
        assert parallel.telemetry.counts() == {"ok": 2}

    def test_parallel_units_times_recorded(self):
        db = random_database(seed=415, num_graphs=6, n=5)
        result = PartMiner(k=4, runtime=RuntimeConfig()).mine(db, 2)
        assert len(result.unit_times) == 4
        assert result.aggregate_time > 0

    def test_paper_parameters_plus_one_executor(self):
        assert [f.name for f in fields(PartMiner)] == [
            "k", "partitioner", "miner_factory", "unit_support",
            "strict_paper_joins", "max_size", "runtime", "run_dir",
        ]

    @pytest.mark.parametrize("retired", [
        "shards", "coord", "parallel_" + "units", "profiler",
        "support_cache",
    ])
    def test_retired_parameters_are_type_errors(self, retired):
        with pytest.raises(TypeError):
            PartMiner(**{retired: None})

    def test_unit_thresholds_use_k_not_tree_depth(self):
        # k=5 leaves sit at depths 2 and 3; the paper's sup/k must be
        # applied, not sup/2^depth (which would drop to 1 at depth 3).
        db = random_database(seed=416, num_graphs=10, n=5)
        from repro.partition.dbpartition import db_partition

        tree = db_partition(db, 5)
        deepest = max(tree.units(), key=lambda u: u.depth)
        assert deepest.depth == 3
        assert resolve_unit_threshold(deepest, 6, "paper", k=5) == 2
        # Without k, the depth-based fallback over-reduces: ceil(6/8) = 1.
        assert resolve_unit_threshold(deepest, 6, "paper") == 1


@pytest.fixture
def partitioned(monkeypatch):
    """Each tree PartMiner builds, with weakrefs to its non-root piece
    databases taken as :func:`db_partition` returns it; ``_FLAT_DBS``
    starts empty."""
    captured = []

    def capture(*args, **kwargs):
        tree = db_partition(*args, **kwargs)
        pieces = [
            weakref.ref(node.database) for node in tree.nodes() if node.depth
        ]
        captured.append((tree, pieces))
        return tree

    monkeypatch.setattr(partminer_module, "db_partition", capture)
    monkeypatch.setattr(flatgraph, "_FLAT_DBS", weakref.WeakKeyDictionary())
    return captured


@contextlib.contextmanager
def collector_off():
    """The CLI's regime while mining: no cyclic collection at all, so a
    piece database dies by reference count or not at all."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestTreeRelease:
    """A static mine drops every non-root piece database once the merge
    above it has read it; IncPartMiner keeps its whole tree."""

    @pytest.mark.parametrize(
        "runtime", [None, RuntimeConfig(max_workers=2)],
        ids=["serial", "runtime"],
    )
    def test_static_mine_releases_every_piece(self, partitioned, runtime):
        db = random_database(seed=417, num_graphs=8, n=6)
        with collector_off():
            result = PartMiner(k=4, runtime=runtime).mine(db, 2)
            [(tree, pieces)] = partitioned
            assert len(pieces) == 6  # 2 internal nodes + 4 units
            assert [ref() for ref in pieces] == [None] * 6
            if accel_enabled():
                assert list(flatgraph._FLAT_DBS.keys()) == [db]
        assert result.tree is tree and tree.root.database is db
        for node in tree.nodes():
            if node.depth:
                assert node.database is None
                assert node.orig_vertices == {}
                assert "released" in repr(node)
        # Structure and provenance stay.
        assert len(tree.units()) == 4
        assert tree.total_connective_edges() > 0
        assert result.parallel_time > 0

    def test_k1_keeps_the_callers_database(self):
        db = random_database(seed=418, num_graphs=6, n=5)
        result = PartMiner(k=1).mine(db, 2)
        assert result.tree.root.database is db

    def test_incremental_miner_keeps_every_piece(self, partitioned):
        db = random_database(seed=419, num_graphs=8, n=6)
        inc = IncrementalPartMiner(k=4)
        with collector_off():
            inc.initial_mine(db, 2)
            [(tree, pieces)] = partitioned
            assert all(ref() is not None for ref in pieces)
            updates = UpdateGenerator(3, 2, seed=5).generate(
                inc.database, inc.ufreq, 0.4, 2, "mixed"
            )
            inc.apply_updates(updates)
            assert all(ref() is not None for ref in pieces)
        assert inc._result.tree is tree
        assert all(node.database is not None for node in tree.nodes())
