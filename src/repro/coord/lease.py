"""Per-shard supervision records (serialized into ``RunTelemetry.coord``).

A shard attempt is one :class:`~repro.runtime.telemetry.AttemptRecord`
of the process supervisor, whose :class:`~repro.runtime.supervisor.Lease`
a worker holds while its heartbeats arrive within the TTL; a heartbeat
gap (or the worker dying outright) forfeits the lease and the shard goes
back to the queue, to be re-leased — reassigned — to a fresh worker.

Shard lifecycle (recorded per shard in :class:`ShardRecord`)::

    PENDING ──lease──▶ mining ──commit──▶ COMMITTED
       ▲                  │
       └──expire/retry────┘        (budget exhausted) ─▶ DEGRADED | FAILED

``DEGRADED`` means the in-process serial fallback mined the shard after
every worker attempt was lost — the run completes exactly, just slower
(the same degradation contract as unit tasks).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..runtime.telemetry import AttemptRecord

# Shard status vocabulary (ShardRecord.status).
PENDING = "pending"
COMMITTED = "committed"
DEGRADED = "degraded"
FAILED = "failed"

#: Attempt outcomes that revoke a live lease (vs. never holding one).
LEASE_LOSS_OUTCOMES = ("lease-expired", "crash")


@dataclass
class ShardRecord:
    """Full supervision history of one shard."""

    shard: int
    status: str = PENDING
    attempts: list[AttemptRecord] = field(default_factory=list)
    lease_expiries: int = 0
    reassignments: int = 0
    wall_time: float = 0.0
    patterns: int | None = None
    graphs: int = 0
    edges: int = 0

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["retries"] = self.retries
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ShardRecord":
        return cls(
            shard=data["shard"],
            status=data["status"],
            attempts=[
                AttemptRecord(**raw) for raw in data.get("attempts", [])
            ],
            lease_expiries=data.get("lease_expiries", 0),
            reassignments=data.get("reassignments", 0),
            wall_time=data.get("wall_time", 0.0),
            patterns=data.get("patterns"),
            graphs=data.get("graphs", 0),
            edges=data.get("edges", 0),
        )


def coord_digest(
    records: list[ShardRecord],
    plan_summary: dict,
    global_phase: dict,
) -> dict:
    """The ``RunTelemetry.coord`` document for one coordinator run.

    Everything a chaos post-mortem needs without any other artifact:
    the placement, each shard's attempt history with lease events, the
    aggregate counters, and what the global-support phase merged.
    """
    return {
        "plan": plan_summary,
        "shards": [record.to_dict() for record in records],
        "counters": {
            "retries": sum(r.retries for r in records),
            "lease_expiries": sum(r.lease_expiries for r in records),
            "reassignments": sum(r.reassignments for r in records),
            "degraded": sum(1 for r in records if r.status == DEGRADED),
        },
        "global_support": global_phase,
    }
