"""Checkpointing: persist per-unit results so a crashed run can resume.

Run directory layout::

    <run_dir>/
        manifest.json           identity of the run (k, thresholds, …)
        units/
            unit_0000.jsonl     PatternSet of unit 0 (mining/store format)
            unit_0001.jsonl     …

Every unit file is written atomically (temp file + rename), so a kill at
any instant leaves either a complete checkpoint or none — a resumed run
never sees a torn file.  The manifest pins the run's identity; opening a
directory whose manifest disagrees (different unit count or thresholds)
raises instead of silently mixing two runs' results.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..mining.base import PatternSet
from ..mining.store import read_patterns, save_patterns
from ..resilience import integrity
from ..resilience.errors import ArtifactCorrupt

MANIFEST_NAME = "manifest.json"
UNITS_DIR = "units"
MANIFEST_VERSION = 1

# Manifest keys that must match for a directory to be resumable.
# ``max_size`` is identity: a checkpoint mined under a different edge
# cap holds a different pattern set, and adopting it would silently mix
# caps (absent on either side compares as None, so pre-cap run
# directories stay resumable by uncapped runs).
_IDENTITY_KEYS = ("units", "thresholds", "max_size")


class CheckpointMismatch(ValueError):
    """The run directory belongs to a different run."""


class CheckpointStore:
    """Per-unit result persistence under one run directory."""

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)

    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.run_dir / MANIFEST_NAME

    def unit_path(self, index: int) -> Path:
        return self.run_dir / UNITS_DIR / f"unit_{index:04d}.jsonl"

    # ------------------------------------------------------------------
    def open(self, manifest: dict) -> bool:
        """Create the run directory, or validate an existing one.

        ``manifest`` describes this run (at least ``units`` — the unit
        count — and the per-unit ``thresholds``).  Returns ``True`` when
        resuming an existing directory, ``False`` when starting fresh.
        Raises :class:`CheckpointMismatch` if the directory was created by
        a run with a different identity.
        """
        (self.run_dir / UNITS_DIR).mkdir(parents=True, exist_ok=True)
        if self.manifest_path.exists():
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            for key in _IDENTITY_KEYS:
                if existing.get(key) != manifest.get(key):
                    raise CheckpointMismatch(
                        f"{self.run_dir} holds a different run: "
                        f"{key}={existing.get(key)!r} on disk vs "
                        f"{manifest.get(key)!r} requested"
                    )
            return True
        record = {"version": MANIFEST_VERSION, **manifest}
        integrity.atomic_write_json(self.manifest_path, record)
        return False

    # ------------------------------------------------------------------
    def has(self, index: int) -> bool:
        return self.unit_path(index).exists()

    def completed_units(self) -> set[int]:
        """Indices of every checkpointed unit."""
        units_dir = self.run_dir / UNITS_DIR
        if not units_dir.is_dir():
            return set()
        found = set()
        for path in units_dir.glob("unit_*.jsonl"):
            try:
                found.add(int(path.stem.split("_", 1)[1]))
            except (IndexError, ValueError):
                continue
        return found

    def save(
        self, index: int, patterns: PatternSet, meta: dict | None = None
    ) -> Path:
        """Atomically persist one unit's result."""
        path = self.unit_path(index)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {"unit": index}
        if meta:
            record.update(meta)
        save_patterns(patterns, path, meta=record, atomic=True)
        return path

    def load(self, index: int) -> PatternSet:
        """Load one unit's checkpointed result (KeyError if absent).

        A checkpoint whose bytes fail integrity verification raises
        :class:`~repro.resilience.errors.ArtifactCorrupt` (the file is
        quarantined to ``<name>.corrupt/`` first); the runtime treats
        that as "not checkpointed" and re-mines the unit.
        """
        path = self.unit_path(index)
        if not path.exists():
            raise KeyError(index)
        try:
            patterns, meta = read_patterns(path)
        except ArtifactCorrupt:
            raise
        except ValueError as exc:
            # Structural corruption without a checksum (legacy file or
            # footer cut off with the tail): same quarantine discipline.
            corrupt = ArtifactCorrupt(
                f"checkpoint {path} is corrupt: {exc}", path=path
            )
            corrupt.quarantined = integrity.quarantine(path)
            raise corrupt from exc
        stored = meta.get("unit")
        if stored is not None and stored != index:
            raise CheckpointMismatch(
                f"{path} claims unit {stored}, expected {index}"
            )
        return patterns
