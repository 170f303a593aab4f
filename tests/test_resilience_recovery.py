"""End-to-end recovery tests: corruption is detected, never served.

Covers the failure drills in DESIGN.md §10:

* a crash between snapshot write and manifest rename leaves the previous
  catalog version published and loadable;
* a corrupt current snapshot falls back to the newest older good version
  (and repairs the manifest);
* a corrupt unit checkpoint is quarantined and the unit re-mined, with
  byte-identical final patterns.
"""

import io as _stdio
import json

import pytest

from repro.core.partminer import resolve_unit_threshold
from repro.mining.gspan import GSpanMiner
from repro.mining.store import dump_patterns, read_patterns
from repro.partition.dbpartition import db_partition
from repro.resilience.errors import ArtifactCorrupt
from repro.runtime import (
    CheckpointStore,
    RuntimeConfig,
    run_unit_mining,
)
from repro.serve.catalog import PatternCatalog

from .conftest import random_database
from .faults import FaultPlan


def mined(seed=2200, support=4):
    db = random_database(seed=seed, num_graphs=8, n=6)
    return db, GSpanMiner().mine(db, support)


def pattern_text(patterns):
    buffer = _stdio.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


def flip_byte(path, needle=b"patterns"):
    """Corrupt ``path`` in place without touching its footer line."""
    raw = path.read_bytes()
    position = max(raw.find(needle), 1)
    mutated = bytearray(raw)
    mutated[position] ^= 0x04
    path.write_bytes(bytes(mutated))


class TestCrashMidPublish:
    def test_crash_before_manifest_rename_keeps_old_version(self, tmp_path):
        db, patterns = mined()
        catalog = PatternCatalog(tmp_path / "catalog")
        catalog.publish(patterns, database=db)
        v1_text = pattern_text(catalog.load().patterns)

        # Second publish dies at its first durable write (the snapshot's
        # patterns.jsonl) — nothing of the new version becomes visible.
        more = GSpanMiner().mine(db, 3)
        plan = FaultPlan()
        plan.inject("artifact.write", OSError("power loss"), times=1)
        with plan.active():
            with pytest.raises(OSError, match="power loss"):
                catalog.publish(more, database=db)

        # The interrupted publish never swapped the manifest: readers
        # still see version 1 with its exact pattern bytes.
        assert catalog.current_version() == 1
        recovered = catalog.load()
        assert recovered.version == 1
        assert pattern_text(recovered.patterns) == v1_text

        # Retrying the publish after the crash succeeds and advances.
        snapshot = catalog.publish(more, database=db)
        assert snapshot.version == 2
        assert catalog.load().version == 2

    def test_crash_between_snapshot_and_manifest(self, tmp_path):
        """Kill specifically between snapshot write and manifest rename."""
        db, patterns = mined()
        catalog = PatternCatalog(tmp_path / "catalog")
        catalog.publish(patterns, database=db)
        v1_text = pattern_text(catalog.load().patterns)

        more = GSpanMiner().mine(db, 3)
        # The manifest is the third artifact write of a publish
        # (patterns.jsonl, index.json, manifest.json): let two through.
        plan = FaultPlan()
        plan.inject("artifact.write", OSError("yanked cord"), times=3)
        with plan.active():
            # consume two arms on a scratch file so only the manifest
            # write of the publish still has a live arm
            from repro.resilience import integrity

            for scratch in ("a", "b"):
                with pytest.raises(OSError):
                    integrity.atomic_write_text(tmp_path / scratch, "x")
            with pytest.raises(OSError, match="yanked cord"):
                catalog.publish(more, database=db)

        # Snapshot directory 2 exists on disk, but the manifest still
        # points at version 1 — the torn publish is invisible.
        assert (tmp_path / "catalog" / "snapshot-000002").is_dir()
        assert catalog.current_version() == 1
        assert pattern_text(catalog.load().patterns) == v1_text


class TestSnapshotFallback:
    def test_corrupt_current_falls_back_to_previous(self, tmp_path):
        db, patterns = mined()
        catalog = PatternCatalog(tmp_path / "catalog")
        catalog.publish(patterns, database=db)
        v1_text = pattern_text(catalog.load().patterns)
        catalog.publish(GSpanMiner().mine(db, 3), database=db)

        flip_byte(tmp_path / "catalog" / "snapshot-000002" / "patterns.jsonl")

        snapshot = catalog.load()
        assert snapshot.version == 1
        assert pattern_text(snapshot.patterns) == v1_text
        # The bad artifact was quarantined, not left to be re-read.
        assert (
            tmp_path / "catalog" / "snapshot-000002"
            / "patterns.jsonl.corrupt"
        ).is_dir()
        # The manifest was repaired to the served version.
        manifest = json.loads(
            (tmp_path / "catalog" / "manifest.json").read_text()
        )
        assert manifest["version"] == 1
        assert manifest["recovered_from"] == 2

    def test_corrupt_index_falls_back_too(self, tmp_path):
        db, patterns = mined()
        catalog = PatternCatalog(tmp_path / "catalog")
        catalog.publish(patterns, database=db)
        catalog.publish(GSpanMiner().mine(db, 3), database=db)
        flip_byte(
            tmp_path / "catalog" / "snapshot-000002" / "index.json",
            needle=b"fragments",
        )
        assert catalog.load().version == 1

    def test_no_good_version_raises_typed_error(self, tmp_path):
        db, patterns = mined()
        catalog = PatternCatalog(tmp_path / "catalog")
        catalog.publish(patterns, database=db)
        flip_byte(tmp_path / "catalog" / "snapshot-000001" / "patterns.jsonl")
        with pytest.raises(ArtifactCorrupt):
            catalog.load()

    def test_fallback_disabled_raises_immediately(self, tmp_path):
        db, patterns = mined()
        catalog = PatternCatalog(tmp_path / "catalog")
        catalog.publish(patterns, database=db)
        catalog.publish(GSpanMiner().mine(db, 3), database=db)
        flip_byte(tmp_path / "catalog" / "snapshot-000002" / "patterns.jsonl")
        with pytest.raises(ArtifactCorrupt):
            catalog.load(fallback=False)


class TestCorruptCheckpointResume:
    def _workload(self):
        db = random_database(seed=911, num_graphs=10, n=6, extra_edges=1)
        tree = db_partition(db, 3)
        units = tree.units()
        thresholds = [
            resolve_unit_threshold(u, 3, "exact") for u in units
        ]
        return units, thresholds

    def test_corrupt_unit_checkpoint_is_remined(self, tmp_path):
        units, thresholds = self._workload()
        reference = run_unit_mining(units, thresholds)

        store = CheckpointStore(tmp_path / "run")
        store.open({"units": len(units), "thresholds": thresholds})
        run_unit_mining(
            units,
            thresholds,
            config=RuntimeConfig(max_workers=1),
            checkpoint=store,
        )
        flip_byte(store.unit_path(1), needle=b"support")

        resumed = run_unit_mining(
            units,
            thresholds,
            config=RuntimeConfig(max_workers=1),
            checkpoint=store,
        )
        # Units 0 and 2 resumed from checkpoints; unit 1 was detected
        # corrupt, quarantined, and re-mined from scratch.
        statuses = {r.unit: r.status for r in resumed.telemetry.units}
        assert statuses[0] == "checkpoint"
        assert statuses[2] == "checkpoint"
        assert statuses[1] == "ok"
        outcomes = [
            a.outcome for a in resumed.telemetry.units[1].attempts
        ]
        assert outcomes[0] == "checkpoint-corrupt"
        assert outcomes[-1] == "ok"
        quarantine = store.unit_path(1).with_name(
            store.unit_path(1).name + ".corrupt"
        )
        assert quarantine.is_dir()

        # Recovery is exact: every unit's patterns match the reference.
        for got, want in zip(
            resumed.unit_results, reference.unit_results
        ):
            assert got.keys() == want.keys()
            for p in got:
                assert p.tids == want.get(p.key).tids

        # The re-mined checkpoint on disk is valid again.
        patterns, _ = read_patterns(store.unit_path(1))
        assert patterns.keys() == reference.unit_results[1].keys()

    def test_truncated_checkpoint_is_remined(self, tmp_path):
        units, thresholds = self._workload()
        store = CheckpointStore(tmp_path / "run")
        store.open({"units": len(units), "thresholds": thresholds})
        baseline = run_unit_mining(
            units, thresholds, config=RuntimeConfig(max_workers=1),
            checkpoint=store,
        )
        path = store.unit_path(0)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        resumed = run_unit_mining(
            units, thresholds, config=RuntimeConfig(max_workers=1),
            checkpoint=store,
        )
        assert resumed.unit_results[0].keys() == (
            baseline.unit_results[0].keys()
        )
