"""In-memory execution record of one runtime run.

Every unit keeps the history of its attempts — outcome, wall time,
worker pid, failure cause, backoff slept — so a caller can tell *why* a
run degraded, not just that it did.  The record is the runtime's return
value and is not written to disk: a traced run's ``unit.mine`` and
``unit.attempt`` spans carry the same facts (DESIGN.md §7).

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

from dataclasses import dataclass, field


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
    """Telemetry of one full runtime run."""

    units: list[UnitRecord] = field(default_factory=list)
    total_wall_time: float = 0.0

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
