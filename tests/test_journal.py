"""Tests for the update journal."""

import io

import pytest

from repro.updates.generator import UpdateGenerator
from repro.resilience.errors import ArtifactCorrupt
from repro.updates.journal import UpdateJournal, replay
from repro.updates.model import (
    AddEdge,
    AddVertex,
    RelabelEdge,
    RelabelVertex,
    apply_updates,
)
from repro.updates.tracker import hot_vertex_assignment

from .conftest import random_database


def sample_batches():
    return [
        [RelabelVertex(0, 1, 9), AddEdge(0, 0, 3, 2)],
        [AddVertex(1, 5, 0, 1), RelabelEdge(1, 0, 1, 7)],
    ]


class TestRoundTrip:
    def test_memory_roundtrip(self):
        journal = UpdateJournal(meta={"dataset": "demo"})
        for batch in sample_batches():
            journal.append(batch)
        buffer = io.StringIO()
        journal.dump(buffer)
        buffer.seek(0)
        back = UpdateJournal.load(buffer)
        assert back.meta == {"dataset": "demo"}
        assert back.batches == journal.batches

    def test_file_roundtrip(self, tmp_path):
        journal = UpdateJournal()
        journal.append(sample_batches()[0])
        path = tmp_path / "updates.jsonl"
        journal.save(path)
        back = UpdateJournal.read(path)
        assert back.batches == journal.batches

    def test_generated_batches_roundtrip(self):
        db = random_database(seed=1200, num_graphs=6)
        ufreq = hot_vertex_assignment(db, 0.3, seed=1)
        generator = UpdateGenerator(5, 5, seed=2)
        journal = UpdateJournal()
        for _ in range(3):
            batch = generator.generate(db, ufreq, 0.5, 2, "mixed")
            journal.append(batch)
            apply_updates(db, batch)
        buffer = io.StringIO()
        journal.dump(buffer)
        buffer.seek(0)
        back = UpdateJournal.load(buffer)
        assert back.batches == journal.batches
        assert len(back) == 3
        assert back.all_updates() == journal.all_updates()


class TestReplay:
    def test_replay_reproduces_database(self):
        original = random_database(seed=1201, num_graphs=6)
        live = original.copy(deep=True)
        ufreq = hot_vertex_assignment(original, 0.3, seed=3)
        generator = UpdateGenerator(5, 5, seed=4)
        journal = UpdateJournal()
        for _ in range(2):
            batch = generator.generate(live, ufreq, 0.5, 2, "mixed")
            journal.append(batch)
            apply_updates(live, batch)

        replayed = original.copy(deep=True)
        touched = replay(journal, replayed)
        for gid in live.gids():
            assert sorted(replayed[gid].edges()) == sorted(live[gid].edges())
            assert replayed[gid].vertex_labels() == live[gid].vertex_labels()
        assert touched  # something was touched

    def test_replay_plus_remine_matches_live_state(self):
        from repro.mining.gspan import GSpanMiner

        original = random_database(seed=1202, num_graphs=8)
        live = original.copy(deep=True)
        generator = UpdateGenerator(5, 5, seed=5)
        ufreq = hot_vertex_assignment(original, 0.3, seed=6)
        journal = UpdateJournal()
        batch = generator.generate(live, ufreq, 0.4, 2, "structural")
        journal.append(batch)
        apply_updates(live, batch)

        replayed = original.copy(deep=True)
        replay(journal, replayed)
        assert (
            GSpanMiner().mine(replayed, 2).keys()
            == GSpanMiner().mine(live, 2).keys()
        )


class TestValidation:
    def test_empty_journal(self):
        with pytest.raises(ValueError, match="empty"):
            UpdateJournal.load(iter([]))

    def test_missing_header(self):
        with pytest.raises(ValueError, match="no header"):
            UpdateJournal.load(iter(['{"kind": "batch"}']))

    def test_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            UpdateJournal.load(
                iter(['{"kind": "header", "version": 9}'])
            )

    def test_out_of_order_batches(self):
        lines = [
            '{"kind": "header", "version": 1}',
            '{"kind": "batch", "index": 3, "updates": []}',
        ]
        with pytest.raises(ValueError, match="out of order"):
            UpdateJournal.load(iter(lines))

    def test_unknown_op(self):
        lines = [
            '{"kind": "header", "version": 1}',
            '{"kind": "batch", "index": 0, '
            '"updates": [{"op": "explode"}]}',
        ]
        with pytest.raises(ValueError, match="unknown update op"):
            UpdateJournal.load(iter(lines))


class TestTornTail:
    """Nothing appends to a journal file, so a torn record is damage:
    every cut, anywhere, raises rather than loading a shorter journal."""

    def _journal_lines(self):
        journal = UpdateJournal(meta={"dataset": "demo"})
        for batch in sample_batches():
            journal.append(batch)
        buffer = io.StringIO()
        journal.dump(buffer)
        return buffer.getvalue().splitlines()

    def test_torn_final_record_raises(self):
        lines = self._journal_lines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        with pytest.raises(ValueError, match="corrupt journal record"):
            UpdateJournal.load(iter(lines))

    def test_mid_file_corruption_always_raises(self):
        lines = self._journal_lines()
        lines[1] = lines[1][:10]  # not the tail: bit rot, not a torn append
        with pytest.raises(ValueError, match="corrupt journal record"):
            UpdateJournal.load(iter(lines))

    @pytest.mark.parametrize("record", [
        '[1, 2]',
        '{"kind": "batch", "index": 0, "updates": {"op": "add_edge"}}',
        '{"kind": "batch", "index": 0, "updates": [7]}',
        '{"kind": "batch", "index": 0, '
        '"updates": [{"op": "add_edge", "gid": 0}]}',
    ])
    def test_malformed_record_raises(self, record):
        with pytest.raises(ValueError):
            UpdateJournal.load(iter(['{"kind": "header", "version": 1}',
                                     record]))

    def test_every_truncation_of_a_saved_journal_raises(self, tmp_path):
        db = random_database(seed=1203, num_graphs=6)
        ufreq = hot_vertex_assignment(db, 0.3, seed=7)
        generator = UpdateGenerator(5, 5, seed=8)
        journal = UpdateJournal(meta={"dataset": "demo"})
        for _ in range(3):
            journal.append(generator.generate(db, ufreq, 0.5, 2, "mixed"))
        path = tmp_path / "updates.jsonl"
        journal.save(path)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises((ArtifactCorrupt, ValueError)):
                UpdateJournal.read(path)
        path.write_bytes(data)
        assert UpdateJournal.read(path).batches == journal.batches

    def test_footerless_journal_file_is_rejected(self, tmp_path):
        path = tmp_path / "updates.jsonl"
        path.write_text("\n".join(self._journal_lines()) + "\n")
        with pytest.raises(ArtifactCorrupt, match="footer missing"):
            UpdateJournal.read(path)
