"""Differential testing across every miner in the library.

On randomized small databases (fixed seeds + Hypothesis-generated), all
monomorphic miners — gSpan, Gaston, FSG and the brute-force oracle — must
return *canonically identical* frequent sets (same keys, same TID lists)
at several thresholds, both standalone and as PartMiner unit miners.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partminer import PartMiner
from repro.mining.bruteforce import BruteForceMiner
from repro.mining.fsg import FSGMiner
from repro.mining.gaston import GastonMiner
from repro.mining.gspan import GSpanMiner
from repro.partition.dbpartition import db_partition

from .conftest import random_database
from .test_properties import databases

MONOMORPHIC_MINERS = {
    "gspan": GSpanMiner,
    "gaston": GastonMiner,
    "fsg": FSGMiner,
    "bruteforce": BruteForceMiner,
}

SEEDS = (101, 202, 303)
THRESHOLDS = (2, 3, 4)


def small_db(seed: int):
    return random_database(seed=seed, num_graphs=7, n=6, extra_edges=1)


def assert_same_patterns(got, want, context=""):
    """Same canonical keys AND same TID lists."""
    assert got.keys() == want.keys(), (
        f"{context}: keys differ "
        f"(+{len(got.keys() - want.keys())} / "
        f"-{len(want.keys() - got.keys())})"
    )
    for pattern in got:
        assert pattern.tids == want.get(pattern.key).tids, context


# ----------------------------------------------------------------------
class TestStandalone:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(MONOMORPHIC_MINERS))
    def test_monomorphic_miners_agree_with_oracle(self, seed, name):
        db = small_db(seed)
        oracle = BruteForceMiner()
        for threshold in THRESHOLDS:
            want = oracle.mine(db, threshold)
            got = MONOMORPHIC_MINERS[name]().mine(db, threshold)
            assert_same_patterns(
                got, want, f"{name} seed={seed} sup={threshold}"
            )

    @settings(max_examples=12, deadline=None)
    @given(db=databases(max_graphs=5, max_vertices=5),
           threshold=st.integers(2, 3))
    def test_hypothesis_differential(self, db, threshold):
        """Property form: arbitrary small databases, all four miners."""
        want = BruteForceMiner().mine(db, threshold)
        for name, factory in MONOMORPHIC_MINERS.items():
            if name == "bruteforce":
                continue
            assert_same_patterns(
                factory().mine(db, threshold), want, f"{name} sup={threshold}"
            )


# ----------------------------------------------------------------------
class TestAsPartMinerUnitMiners:
    """PartMiner in lossless mode is miner-agnostic: any correct
    monomorphic unit miner must produce the same final answer."""

    @pytest.mark.parametrize("seed", SEEDS[:2])
    @pytest.mark.parametrize("name", sorted(MONOMORPHIC_MINERS))
    def test_unit_miner_equivalence(self, seed, name):
        db = small_db(seed)
        for threshold in (2, 3):
            want = BruteForceMiner().mine(db, threshold)
            result = PartMiner(
                k=2,
                unit_support="exact",
                miner_factory=MONOMORPHIC_MINERS[name],
            ).mine(db, threshold)
            assert_same_patterns(
                result.patterns, want,
                f"partminer[{name}] seed={seed} sup={threshold}",
            )

    @pytest.mark.parametrize("name", sorted(MONOMORPHIC_MINERS))
    def test_unit_miner_equivalence_k4(self, name):
        db = small_db(404)
        want = BruteForceMiner().mine(db, 3)
        result = PartMiner(
            k=4,
            unit_support="exact",
            miner_factory=MONOMORPHIC_MINERS[name],
        ).mine(db, 3)
        assert_same_patterns(result.patterns, want, f"k=4 {name}")


# ----------------------------------------------------------------------
# The acceleration matrix: every accel mode, identical answers.
# ----------------------------------------------------------------------
class TestAccelMatrix:
    """The acceleration layer is an *optimization*, never a semantic:
    accel off (the reference matcher), the batched kernel, and the
    kernel behind parallel unit workers (graph-list payloads) must all
    mine byte-identical pattern sets.

    The matrix is the lockdown for the flat plans
    (:mod:`repro.perf.fastmatch`), the batched scan kernel with its
    minsup early exits (:mod:`repro.perf.batchscan`) and the cs/0112007
    join bound wired into :mod:`repro.core.mergejoin` — any unsound
    shortcut in any of them shows up here as a divergence from the
    accel-off baseline."""

    MODES = ("off", "kernel", "kernel+parallel")

    @staticmethod
    def mine_in_mode(mode: str, db, threshold: int):
        from repro import perf
        from repro.runtime import RuntimeConfig

        if mode == "off":
            with perf.disabled():
                return PartMiner(k=2, unit_support="exact").mine(
                    db, threshold
                )
        if mode == "kernel":
            return PartMiner(k=2, unit_support="exact").mine(db, threshold)
        if mode == "kernel+parallel":
            return PartMiner(
                k=2,
                unit_support="exact",
                    runtime=RuntimeConfig(max_workers=2),
            ).mine(db, threshold)
        raise AssertionError(mode)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_modes_agree_with_each_other_and_the_oracle(self, seed):
        db = small_db(seed)
        for threshold in (2, 3):
            want = BruteForceMiner().mine(db, threshold)
            for mode in self.MODES:
                got = self.mine_in_mode(mode, db, threshold).patterns
                assert_same_patterns(
                    got, want, f"accel[{mode}] seed={seed} sup={threshold}"
                )

    @pytest.mark.parametrize("name", ("gspan", "gaston", "fsg"))
    def test_standalone_miners_are_mode_invariant(self, name):
        """Unit miners run inside every mode too — their answers must not
        depend on the accel state they execute under."""
        from repro import perf

        db = small_db(SEEDS[1])
        want = BruteForceMiner().mine(db, 3)
        with perf.disabled():
            off = MONOMORPHIC_MINERS[name]().mine(db, 3)
        kernel = MONOMORPHIC_MINERS[name]().mine(db, 3)
        for got, mode in ((off, "off"), (kernel, "kernel")):
            assert_same_patterns(got, want, f"{name}[{mode}]")


# ----------------------------------------------------------------------
# Soundness of the cs/0112007 join bound: exhaustive replay.
# ----------------------------------------------------------------------
class TestBoundPruningSoundness:
    """merge_join skips a whole join level when the TID-intersection
    bound proves every candidate infrequent.  Each skip records its live
    inputs in ``stats.extras['skipped_join_levels']``; here every skipped
    level is re-joined *without* the bound and every candidate's support
    is counted exhaustively — zero frequent patterns may hide in a
    skipped level, ever."""

    @staticmethod
    def tree_nodes(tree):
        nodes = {}

        def walk(node):
            nodes[(node.depth, node.index)] = node
            for child in node.children or ():
                walk(child)

        walk(tree.root)
        return nodes

    @staticmethod
    def replay_skipped_levels(merge_stats, nodes, context):
        """``(levels, candidates)`` replayed; asserts none is frequent."""
        from repro.core.join import join_patterns
        from repro.graph.isomorphism import count_support

        levels = replayed = 0
        for node_key, stats in merge_stats.items():
            dataset = nodes[node_key].database
            for record in stats.extras.get("skipped_join_levels", []):
                levels += 1
                # Re-generate the level's candidates with the bound
                # off (min_bound=0, empty seen: *every* candidate).
                candidates = {}
                for a, b in record["inputs"]:
                    for key, (graph, _bound) in join_patterns(
                        a, b, set()
                    ).items():
                        candidates.setdefault(key, graph)
                for key, graph in candidates.items():
                    support, _tids = count_support(graph, dataset, key=key)
                    assert support < record["threshold"], (
                        f"{context} node={node_key} "
                        f"size={record['size']}: skipped level hides a "
                        f"frequent pattern {key}"
                    )
                    replayed += 1
        return levels, replayed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skipped_levels_contain_no_frequent_patterns(self, seed):
        db = small_db(seed)
        replayed_levels = 0
        for threshold in (2, 3):
            result = PartMiner(k=2, unit_support="exact").mine(
                db, threshold
            )
            # A static mine releases its piece databases; the same
            # deterministic partition rebuilds them for the replay.
            levels, _ = self.replay_skipped_levels(
                result.merge_stats,
                self.tree_nodes(db_partition(db, 2)),
                f"seed={seed} sup={threshold}",
            )
            replayed_levels += levels
        # The test must not pass vacuously: these workloads are known to
        # trigger skips (and most skipped levels still join candidates).
        assert replayed_levels > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_incremental_merges_skip_no_frequent_patterns_either(self, seed):
        """The bound runs on incremental merges too (every input carries
        exact, delta-recounted TIDs): same replay, against each node's
        dataset as the batch left it."""
        from repro.core.incremental import IncrementalPartMiner
        from repro.updates.generator import UpdateGenerator

        inc = IncrementalPartMiner(k=2, unit_support="exact")
        inc.initial_mine(small_db(seed), 2)
        nodes = self.tree_nodes(inc._result.tree)
        generator = UpdateGenerator(3, 2, seed=seed)
        replayed_levels = 0
        for batch in range(3):
            updates = generator.generate(
                inc.database, inc.ufreq, 0.4, 2, "mixed"
            )
            stats = inc.apply_updates(updates).stats
            assert stats.merge_stats, "the batch re-merged no node"
            levels, _ = self.replay_skipped_levels(
                stats.merge_stats, nodes, f"seed={seed} batch={batch}"
            )
            replayed_levels += levels
        assert replayed_levels > 0

    def test_pair_pruning_never_changes_the_answer(self):
        """The finer-grained prune (join_patterns min_bound) is covered
        by direct comparison: with and without the bound, the surviving
        candidate keys that can reach the threshold are identical."""
        from repro.core.join import join_patterns

        db = small_db(SEEDS[0])
        threshold = 2
        result = PartMiner(k=2, unit_support="exact").mine(db, threshold)
        patterns = [p for p in result.patterns if p.size == 2]
        if len(patterns) < 2:
            pytest.skip("workload too small to join")
        unbounded = join_patterns(patterns, patterns, set())
        bounded = join_patterns(
            patterns, patterns, set(), min_bound=threshold
        )
        assert set(bounded) <= set(unbounded)
        for key, (graph, bound) in unbounded.items():
            if key not in bounded:
                # Pruned pairs: every surviving record of the candidate
                # must have been below the bound.
                assert len(bound) < threshold
