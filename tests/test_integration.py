"""End-to-end integration tests crossing all subsystems."""

import pytest

from repro import (
    ADIMiner,
    GSpanMiner,
    GastonMiner,
    IncrementalPartMiner,
    PartMiner,
    UpdateGenerator,
    generate_dataset,
    hot_vertex_assignment,
)
from repro.graph import io
from repro.partition.graphpart import GraphPartitioner
from repro.partition.metis import MetisPartitioner
from repro.partition.weights import PARTITION1, PARTITION2, PARTITION3


@pytest.fixture(scope="module")
def synthetic_db():
    return generate_dataset("D40T10N8L12I4", seed=13)


class TestStaticPipeline:
    def test_all_miners_agree(self, synthetic_db):
        sup = 0.2
        gspan = GSpanMiner().mine(synthetic_db, sup)
        gaston = GastonMiner().mine(synthetic_db, sup)
        with ADIMiner() as adi:
            adimine = adi.mine(synthetic_db, sup)
        assert gspan.keys() == gaston.keys() == adimine.keys()

    def test_partminer_all_criteria_sound(self, synthetic_db):
        truth = GSpanMiner().mine(synthetic_db, 0.2)
        for weights in (PARTITION1, PARTITION2, PARTITION3):
            result = PartMiner(
                k=2, partitioner=GraphPartitioner(weights)
            ).mine(synthetic_db, 0.2)
            assert result.patterns.keys() <= truth.keys()
            recall = len(result.patterns.keys() & truth.keys()) / len(truth)
            assert recall >= 0.9, f"{weights} recall {recall}"

    def test_partminer_with_metis(self, synthetic_db):
        truth = GSpanMiner().mine(synthetic_db, 0.2)
        result = PartMiner(k=2, partitioner=MetisPartitioner()).mine(
            synthetic_db, 0.2
        )
        assert result.patterns.keys() <= truth.keys()

    def test_roundtrip_through_disk(self, synthetic_db, tmp_path):
        path = tmp_path / "db.tve"
        io.write_database(synthetic_db, path)
        reloaded = io.read_database(path)
        assert (
            GSpanMiner().mine(reloaded, 0.25).keys()
            == GSpanMiner().mine(synthetic_db, 0.25).keys()
        )


class TestDynamicPipeline:
    def test_full_dynamic_scenario(self, synthetic_db):
        """Generate -> mine -> update x2 -> incremental == full re-mine.

        Uses exact unit support + recheck to assert strict equality; the
        heuristic modes are covered statistically elsewhere.
        """
        ufreq = hot_vertex_assignment(synthetic_db, 0.2, seed=3)
        inc = IncrementalPartMiner(
            k=2, unit_support="exact", max_size=4
        )
        inc.initial_mine(synthetic_db, 0.25, ufreq=ufreq)
        gen = UpdateGenerator(8, 8, seed=4)
        for kind in ("relabel", "structural"):
            updates = gen.generate(inc.database, inc.ufreq, 0.3, 1, kind)
            result = inc.apply_updates(updates)
            truth = GSpanMiner(max_size=4).mine(
                inc.database, inc.database.absolute_support(0.25)
            )
            assert result.patterns.keys() == truth.keys()

    def test_incpartminer_beats_adimine_on_work(self, synthetic_db):
        """The headline claim, in work terms: after a small update batch,
        IncPartMiner re-mines a subset of units while ADIMINE rebuilds and
        re-mines everything."""
        ufreq = hot_vertex_assignment(synthetic_db, 0.2, seed=5)
        inc = IncrementalPartMiner(k=4, unit_support="paper")
        inc.initial_mine(synthetic_db, 0.25, ufreq=ufreq)

        with ADIMiner() as adi:
            adi.mine(synthetic_db, 0.25)

            gen = UpdateGenerator(8, 8, seed=6)
            updates = gen.generate(inc.database, inc.ufreq, 0.2, 1, "mixed")
            result = inc.apply_updates(updates)

            adi_result = adi.mine_updated(inc.database, 0.25)
            assert adi.stats.index_builds == 2  # full rebuild forced

        assert result.stats.units_remined <= 4
        # IncPartMiner output is sound w.r.t. the exact answer.
        assert result.patterns.keys() <= adi_result.keys() or (
            len(result.patterns.keys() - adi_result.keys())
            <= 0.1 * len(adi_result)
        )


class TestClassificationConsistency:
    def test_uf_fi_if_relative_to_exact_sets(self, synthetic_db):
        ufreq = hot_vertex_assignment(synthetic_db, 0.2, seed=7)
        inc = IncrementalPartMiner(
            k=2, unit_support="exact", max_size=3
        )
        initial = inc.initial_mine(synthetic_db, 0.25, ufreq=ufreq)
        old_keys = initial.patterns.keys()
        gen = UpdateGenerator(8, 8, seed=8)
        updates = gen.generate(inc.database, inc.ufreq, 0.4, 2, "mixed")
        result = inc.apply_updates(updates)
        new_truth = GSpanMiner(max_size=3).mine(
            inc.database, inc.database.absolute_support(0.25)
        )
        assert result.became_frequent.keys() == new_truth.keys() - old_keys
        assert result.became_infrequent.keys() == old_keys - new_truth.keys()
        assert result.unchanged.keys() == old_keys & new_truth.keys()


class TestStreamedEpochs:
    def test_stream_driven_incremental_session(self, synthetic_db):
        """Epochs from an UpdateStream keep IncPartMiner exact and sound."""
        from repro.mining.validate import validate
        from repro.updates.stream import UpdateStream

        ufreq = hot_vertex_assignment(synthetic_db, 0.2, seed=11)
        miner = IncrementalPartMiner(
            k=2, unit_support="exact", max_size=3
        )
        miner.initial_mine(synthetic_db, 0.25, ufreq=ufreq)
        stream = UpdateStream(
            miner.database,
            ufreq,
            num_labels=8,
            fraction_graphs=0.25,
            drift=0.5,
            seed=12,
        )
        for _, batch in stream.batches(2):
            result = miner.apply_updates(batch)
            report = validate(result.patterns, miner.database)
            assert report.ok, report.summary()

    def test_four_unit_streamed_session_equals_gspan(self, synthetic_db):
        from repro.updates.stream import UpdateStream

        ufreq = hot_vertex_assignment(synthetic_db, 0.2, seed=13)
        miner = IncrementalPartMiner(k=4, unit_support="exact", max_size=3)
        miner.initial_mine(synthetic_db, 0.25, ufreq=ufreq)
        stream = UpdateStream(
            miner.database, ufreq, num_labels=8,
            fraction_graphs=0.2, seed=14,
        )
        for _, batch in stream.batches(2):
            result = miner.apply_updates(batch)
            truth = GSpanMiner(max_size=3).mine(
                miner.database, miner.database.absolute_support(0.25)
            )
            assert result.patterns.keys() == truth.keys()
