"""Tests for selective unit re-mining (exact incremental unit updates)."""

import random

import pytest

from repro.core.incremental import IncrementalPartMiner
from repro.mining.gaston import GastonMiner
from repro.mining.gspan import GSpanMiner
from repro.mining.incremental_unit import (
    SelectiveRemineStats,
    selective_unit_remine,
)
from repro.updates.generator import UpdateGenerator
from repro.updates.tracker import hot_vertex_assignment

from .conftest import random_database, random_graph


def mutate_some(db, gids, seed=0):
    """Relabel one vertex in each of the given graphs (in place)."""
    rng = random.Random(seed)
    for gid in gids:
        graph = db[gid]
        graph.set_vertex_label(rng.randrange(graph.num_vertices), 9)


class TestExactness:
    @pytest.mark.parametrize("threshold", [2, 3])
    def test_equals_full_remine(self, threshold):
        db = random_database(seed=900, num_graphs=12, n=7)
        old = GastonMiner().mine(db, threshold)
        changed = {0, 3, 7}
        mutate_some(db, changed, seed=1)
        got = selective_unit_remine(db, old, changed, threshold)
        want = GastonMiner().mine(db, threshold)
        assert got.keys() == want.keys()
        for p in got:
            assert p.tids == want.get(p.key).tids

    def test_structural_changes(self):
        db = random_database(seed=901, num_graphs=12, n=6)
        old = GastonMiner().mine(db, 3)
        rng = random.Random(5)
        changed = {1, 4}
        for gid in changed:
            db.replace(gid, random_graph(rng, 7, 2))
        got = selective_unit_remine(db, old, changed, 3)
        want = GastonMiner().mine(db, 3)
        assert got.keys() == want.keys()

    def test_no_changes_is_identity(self):
        db = random_database(seed=902, num_graphs=8, n=6)
        old = GastonMiner().mine(db, 2)
        got = selective_unit_remine(db, old, set(), 2)
        assert got.keys() == old.keys()
        for p in got:
            assert p.tids == old.get(p.key).tids

    def test_repeated_batches_stay_exact(self):
        db = random_database(seed=903, num_graphs=10, n=6)
        current = GastonMiner().mine(db, 2)
        for round_index in range(3):
            changed = {round_index, round_index + 3}
            mutate_some(db, changed, seed=round_index)
            current = selective_unit_remine(db, current, changed, 2)
            want = GastonMiner().mine(db, 2)
            assert current.keys() == want.keys()


class TestFallback:
    def test_falls_back_when_most_pieces_changed(self):
        db = random_database(seed=904, num_graphs=10, n=6)
        old = GastonMiner().mine(db, 2)
        changed = set(range(8))
        mutate_some(db, changed, seed=2)
        stats = SelectiveRemineStats()
        got = selective_unit_remine(
            db, old, changed, 2, fallback_fraction=0.5, stats=stats
        )
        assert stats.fell_back_to_full
        assert got.keys() == GastonMiner().mine(db, 2).keys()

    def test_stats_populated(self):
        db = random_database(seed=905, num_graphs=12, n=6)
        old = GastonMiner().mine(db, 3)
        changed = {0, 5}
        mutate_some(db, changed, seed=3)
        stats = SelectiveRemineStats()
        selective_unit_remine(db, old, changed, 3, stats=stats)
        assert stats.changed_pieces == 2
        assert stats.survivors_checked == len(old)
        assert not stats.fell_back_to_full


class TestIntegrationWithIncPartMiner:
    def test_selective_mode_equals_full_mode(self):
        db = random_database(seed=906, num_graphs=12, n=6)
        ufreq = hot_vertex_assignment(db, 0.25, seed=7)
        results = {}
        for mode in ("full", "selective"):
            inc = IncrementalPartMiner(
                k=2,
                unit_support="exact",
                unit_remine=mode,
            )
            inc.initial_mine(db, 3, ufreq=ufreq)
            gen = UpdateGenerator(3, 2, seed=8)
            updates = gen.generate(inc.database, inc.ufreq, 0.25, 1, "mixed")
            results[mode] = inc.apply_updates(updates)
        assert (
            results["full"].patterns.keys()
            == results["selective"].patterns.keys()
        )
        truth = None  # both must equal a direct re-mine of either copy
        for mode in ("full", "selective"):
            assert results[mode].patterns.keys() == results[
                "full"
            ].patterns.keys()

    def test_selective_matches_ground_truth(self):
        db = random_database(seed=907, num_graphs=12, n=6)
        ufreq = hot_vertex_assignment(db, 0.25, seed=9)
        inc = IncrementalPartMiner(
            k=2,
            unit_support="exact",
            unit_remine="selective",
        )
        inc.initial_mine(db, 3, ufreq=ufreq)
        gen = UpdateGenerator(3, 2, seed=10)
        for _ in range(2):
            updates = gen.generate(inc.database, inc.ufreq, 0.3, 1, "mixed")
            result = inc.apply_updates(updates)
            truth = GSpanMiner().mine(inc.database, 3)
            assert result.patterns.keys() == truth.keys()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unit_remine"):
            IncrementalPartMiner(unit_remine="bogus")
