"""Structured execution telemetry of one runtime run.

Every unit keeps the full history of its attempts — outcome, wall time,
worker pid, failure cause, backoff slept — so a post-mortem can tell *why*
a run degraded, not just that it did.  The whole record serializes to a
single JSON document (``RunTelemetry.to_dict`` / ``save``) whose schema is
documented in DESIGN.md.

Outcome vocabulary (``AttemptRecord.outcome``):

``ok``              worker returned a valid result
``timeout``         attempt exceeded ``unit_timeout``; worker killed
``crash``           worker died without reporting (segfault, OOM kill…)
``error``           worker raised an exception (message in ``error``)
``garbage``         the worker's result failed validation
``checkpoint``      an earlier result was adopted, nothing ran
``checkpoint-corrupt``  that earlier result failed integrity
                    verification and was quarantined
``fallback-serial`` in-process serial fallback mined the unit
``fallback-error``  no serial fallback, or even the fallback raised

Unit status (``UnitRecord.status``): ``ok`` (a worker attempt succeeded),
``degraded`` (serial fallback), ``checkpoint`` (adopted), ``failed``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

TELEMETRY_VERSION = 1


@dataclass
class AttemptRecord:
    """One attempt at one unit; ``worker`` is the supervisor slot."""

    attempt: int
    outcome: str
    wall_time: float
    pid: int | None = None
    error: str | None = None
    backoff: float | None = None  # delay slept after this failed attempt
    worker: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "AttemptRecord":
        """Load one attempt; keys this version does not know are dropped
        (files from sharded runs carried ``heartbeats`` and friends)."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: raw[key] for key in raw.keys() & known})


@dataclass
class UnitRecord:
    """Full execution history of one unit."""

    unit: int
    status: str
    attempts: list[AttemptRecord] = field(default_factory=list)
    wall_time: float = 0.0
    patterns: int | None = None

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def failure_causes(self) -> list[str]:
        """Outcomes of the attempts that did not produce a result."""
        return [
            a.outcome
            for a in self.attempts
            if a.outcome not in ("ok", "fallback-serial", "checkpoint")
        ]


@dataclass
class RunTelemetry:
    """Telemetry of one full runtime run.

    ``serving`` carries the pattern-serving digest when the run fed a
    query service (request/batching/reload counters and the query
    engine's work totals, see
    :meth:`repro.serve.PatternService.attach_telemetry`); empty when no
    service was involved.

    ``trace`` is a *pointer* into the observability subsystem, not a
    replacement by it: when the run was traced it holds the trace id,
    the trace-file path and the span count, plus ``error`` if the file
    could not be written (see :mod:`repro.obs`); empty for untraced
    runs.
    """

    units: list[UnitRecord] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    total_wall_time: float = 0.0
    serving: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    def unit(self, index: int) -> UnitRecord:
        for record in self.units:
            if record.unit == index:
                return record
        raise KeyError(index)

    def counts(self) -> dict[str, int]:
        """Unit counts by status."""
        counts: dict[str, int] = {}
        for record in self.units:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    def summary(self) -> dict:
        """Compact JSON-ready digest (for bench notes and CLI output)."""
        return {
            "units": len(self.units),
            "statuses": self.counts(),
            "attempts": sum(r.num_attempts for r in self.units),
            "retries": sum(
                max(0, r.num_attempts - 1)
                for r in self.units
                if r.status != "checkpoint"
            ),
            "total_wall_time": self.total_wall_time,
        }

    def format_summary(self) -> str:
        """One human line: ``4 units: 2 ok, 1 checkpoint, 1 degraded …``."""
        counts = self.counts()
        parts = ", ".join(
            f"{counts[s]} {s}" for s in sorted(counts)
        ) or "none"
        return (
            f"{len(self.units)} units: {parts} "
            f"({sum(r.num_attempts for r in self.units)} attempts, "
            f"{self.total_wall_time:.2f}s)"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": TELEMETRY_VERSION,
            "config": self.config,
            "total_wall_time": self.total_wall_time,
            "serving": self.serving,
            "trace": self.trace,
            "units": [asdict(record) for record in self.units],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunTelemetry":
        if data.get("version") != TELEMETRY_VERSION:
            raise ValueError(
                f"unsupported telemetry version {data.get('version')!r}"
            )
        units = [
            UnitRecord(
                unit=raw["unit"],
                status=raw["status"],
                attempts=[AttemptRecord.from_dict(a) for a in raw["attempts"]],
                wall_time=raw["wall_time"],
                patterns=raw.get("patterns"),
            )
            for raw in data["units"]
        ]
        return cls(
            units=units,
            config=data.get("config", {}),
            total_wall_time=data.get("total_wall_time", 0.0),
            serving=data.get("serving", {}),
            trace=data.get("trace", {}),
        )

    def save(self, path: str | Path) -> None:
        """Atomically (fsync + rename) persist the telemetry JSON."""
        from ..resilience import integrity

        integrity.atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "RunTelemetry":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
