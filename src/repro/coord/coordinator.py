"""The sharded mining coordinator: shard tasks on the process supervisor.

Architecture (DESIGN.md §7, §15)::

    Coordinator.mine(database, support)
      ├─ ShardPlan.build            density-ranked round-robin placement
      ├─ spill / reference          one SQLite file all workers stream
      ├─ Supervisor.run(shard tasks)   (repro.runtime.supervisor)
      │     each attempt: adopt a committed result, else
      │     grant lease ─▶ spawn worker ─▶ heartbeats renew the lease
      │     ├─ heartbeat gap > TTL ─▶ lease expired, worker killed
      │     ├─ worker death (EOF)  ─▶ lease forfeited
      │     ├─ failed attempt      ─▶ jittered backoff ─▶ any free slot
      │     │                         re-leases it (reassignment)
      │     └─ budget exhausted    ─▶ in-process serial fallback
      └─ global-support phase       union the candidates + exact recount

Every shard's durable state lives under ``<run_dir>/shards/shard_NN/``:
chunk checkpoints (the worker's resume points) and the exactly-once
``result.jsonl`` commit.  Re-running with the same ``run_dir`` adopts
committed shards wholesale and resumes partial ones from their last
chunk.  The coordinator manifest pins the placement — a directory
created under a different plan refuses to resume.

Fault sites (chaos matrix): ``coord.lease`` (grant bookkeeping),
``coord.heartbeat`` (processing one worker heartbeat — an injected
failure is a *lost* beat), ``coord.shard_result`` (reading a committed
shard artifact; a byte site — corrupted results are quarantined and the
shard re-mined).
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .. import obs
from ..graph.database import GraphDatabase
from ..mining.base import PatternSet
from ..mining.store import load_patterns
from ..obs import metrics as obs_metrics
from ..resilience import faults, integrity
from ..resilience.errors import ArtifactCorrupt
from ..runtime.checkpoint import CheckpointMismatch, CheckpointStore
from ..runtime.config import RuntimeConfig
from ..runtime.payload import sqlite_spec
from ..runtime.supervisor import Supervisor, Task, UnitMiningError
from ..runtime.telemetry import AttemptRecord, RunTelemetry, UnitRecord
from .lease import (
    COMMITTED,
    DEGRADED,
    FAILED,
    LEASE_LOSS_OUTCOMES,
    ShardRecord,
    coord_digest,
)
from .merge import global_support, merge_candidates
from .plan import ShardPlan
from .worker import mine_shard

SITE_LEASE = faults.register_site(
    "coord.lease", "granting or renewing a shard lease"
)
SITE_HEARTBEAT = faults.register_site(
    "coord.heartbeat", "processing one shard-worker heartbeat"
)
SITE_SHARD_RESULT = faults.register_site(
    "coord.shard_result", "reading a committed shard-result artifact"
)

MANIFEST_NAME = "coord.json"
SPILL_NAME = "spill.db"
RESULT_NAME = "result.jsonl"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class CoordConfig:
    """Execution policy of the sharded coordinator.

    Parameters
    ----------
    shards:
        Number of database shards (= shard tasks handed to the
        supervisor; ``runtime.max_workers`` bounds how many are mined
        at once).
    chunk_size:
        Graphs per checkpoint chunk inside a shard (``0`` = whole-shard
        chunks).  Smaller chunks = finer resume granularity after a
        worker kill, at more checkpoint-write cost.
    heartbeat_interval:
        Seconds between worker heartbeats.  Eight intervals of silence
        expire a lease — tolerant of a dropped beat, fast on a dead
        worker.
    mem_budget:
        Per-worker decoded-graph cache budget, in graphs.  Shards
        larger than the budget stream their SQLite rows instead of
        materializing (the out-of-core contract of :mod:`repro.storage`).
    runtime:
        The :class:`~repro.runtime.config.RuntimeConfig` supervision
        policy, used exactly as for unit tasks: ``max_workers`` worker
        slots drain the shard queue, ``max_retries`` bounds worker
        attempts, ``backoff_*`` (with seeded jitter) paces requeues,
        ``unit_timeout`` caps one attempt's wall clock, ``fallback``
        picks serial degradation vs. failing the run, ``kill_grace`` /
        ``start_method`` govern the worker processes.
    """

    shards: int = 4
    chunk_size: int = 0
    heartbeat_interval: float = 0.25
    mem_budget: int | None = None
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1: {self.shards}")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive: "
                f"{self.heartbeat_interval}"
            )

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "chunk_size": self.chunk_size,
            "heartbeat_interval": self.heartbeat_interval,
            "mem_budget": self.mem_budget,
            "runtime": self.runtime.to_dict(),
        }


@dataclass
class CoordResult:
    """Output of one coordinator run."""

    patterns: PatternSet
    threshold: int
    plan: ShardPlan
    telemetry: RunTelemetry
    shard_results: list[PatternSet]


class _ShardTask(Task):
    """One shard on the supervisor: leases, events, exactly-once commit."""

    label = "shard"
    task_span, attempt_span = None, "coord.shard"
    worker_span, fallback_span = "coord.worker", "coord.fallback"
    adopted, corrupt = "resumed-commit", "result-corrupt"
    undecodable, start_error = "result-corrupt", "lease-error"

    def __init__(self, coordinator, record: ShardRecord, payload: dict):
        config = coordinator.config
        self.coordinator, self.record, self.payload = (
            coordinator, record, payload
        )
        self.index, self.worker = record.shard, coordinator.worker
        self.beat_every = config.heartbeat_interval
        self.beat_ttl = 8.0 * config.heartbeat_interval
        self.lost_lease = False  # last attempt forfeited a live lease

    def _event(self, kind: str, slot: str, **ctx) -> None:
        self.coordinator.on_event(kind, shard=self.index, worker=slot, **ctx)

    def adopt(self) -> PatternSet | None:
        # Exactly-once: a result committed by a previous attempt (or a
        # previous *run*) is adopted, never re-mined.
        if not self.coordinator.result_path(self.index).exists():
            return None
        return self.coordinator._read_result(self.index)

    def start(self, attempt: int, slot: str) -> object:
        faults.fire(
            SITE_LEASE, shard=self.index, worker=slot, attempt=attempt
        )
        return self.payload

    def spawned(self, pid: int, slot: str) -> None:
        obs_metrics.count_coord_lease("granted")
        if self.lost_lease:
            self.record.reassignments += 1
            obs_metrics.count_coord_lease("reassigned")
            self._event("reassigned", slot, pid=pid)
        self._event("lease", slot, pid=pid)

    def beat(self, info, pid: int, slot: str) -> None:
        faults.fire(
            SITE_HEARTBEAT, shard=self.index, worker=slot, seq=info[1]
        )
        obs_metrics.count_coord_lease("renewed")
        self._event("heartbeat", slot, pid=pid, seq=info[1])
        if info[0] == "unit":
            self._event(
                "unit", slot, pid=pid, chunk=info[1], patterns=info[2]
            )

    def decode(self, info, record: AttemptRecord) -> PatternSet:
        patterns = self.coordinator._read_result(self.index)
        record.resumed_units = info.get("resumed", 0)
        record.mined_units = info.get("mined", 0)
        return patterns

    def degrade(self, record: AttemptRecord, slot: str) -> PatternSet:
        self._event("fallback", slot)
        info = mine_shard(self.payload, record.attempt, lambda info: None)
        return self.decode(info, record)

    def attempted(self, record: AttemptRecord, slot: str) -> None:
        obs_metrics.count_coord_attempt(record.outcome)
        self.lost_lease = record.outcome in LEASE_LOSS_OUTCOMES
        if self.lost_lease:
            self.record.lease_expiries += 1
            obs_metrics.count_coord_lease("expired")
            self._event("expired", slot, pid=record.pid)

    def settled(self, patterns, record: UnitRecord, slot: str) -> None:
        shard = self.record
        shard.status = {
            "ok": COMMITTED, "checkpoint": COMMITTED, "degraded": DEGRADED,
        }.get(record.status, FAILED)
        shard.attempts = record.attempts
        shard.wall_time, shard.patterns = record.wall_time, record.patterns
        obs_metrics.count_coord_shard_status(shard.status)
        if shard.status == COMMITTED:
            self._event("committed", slot)


class Coordinator:
    """Supervised sharded mining over one run directory.

    Parameters
    ----------
    config:
        :class:`CoordConfig` policy.
    run_dir:
        Durable state root (manifest, spill file, per-shard checkpoint
        dirs and result commits).  Reusing it resumes.
    worker:
        The picklable worker ``worker(payload, attempt, beat)`` run in a
        fresh process per attempt (tests substitute shims); it must
        commit ``payload["result_path"]`` the way
        :func:`repro.coord.worker.mine_shard` does.
    on_event:
        Optional hook ``on_event(kind, **ctx)`` fired on supervision
        events (``lease``, ``heartbeat``, ``unit``, ``expired``,
        ``reassigned``, ``committed``, ``fallback``) — the chaos tests
        use it to SIGKILL workers at precise moments.
    sleep:
        Injectable wait for backoff (tests pass a recorder).
    """

    def __init__(
        self,
        config: CoordConfig | None = None,
        run_dir: str | Path | None = None,
        *,
        worker: Callable = mine_shard,
        on_event: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if run_dir is None:
            raise ValueError("Coordinator requires a run_dir")
        self.config = config or CoordConfig()
        self.run_dir = Path(run_dir)
        self.worker = worker
        self.on_event = on_event or (lambda kind, **ctx: None)
        self.sleep = sleep

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def shard_dir(self, shard: int) -> Path:
        return self.run_dir / "shards" / f"shard_{shard:02d}"

    def result_path(self, shard: int) -> Path:
        return self.shard_dir(shard) / RESULT_NAME

    # ------------------------------------------------------------------
    def mine(
        self,
        database: GraphDatabase,
        min_support: float | int,
        *,
        max_size: int | None = None,
    ) -> CoordResult:
        """Mine the exact frequent pattern set of ``database``, sharded."""
        config = self.config
        threshold = database.absolute_support(min_support)
        start = time.perf_counter()

        with obs.span(
            "coord.mine",
            shards=config.shards,
            threshold=threshold,
            graphs=len(database),
        ) as run_span:
            with obs.span("coord.plan"):
                plan = ShardPlan.build(database, config.shards)
            for shard, (graphs, edges) in enumerate(plan.sizes):
                obs_metrics.set_coord_shard_size(shard, graphs, edges)

            chunk_thresholds = [
                plan.chunk_threshold(threshold, shard, config.chunk_size)
                for shard in range(config.shards)
            ]
            if (
                threshold > 1
                and max_size is None
                and min(chunk_thresholds) <= 1
            ):
                # The pigeonhole relaxation bottomed out: some chunk
                # mines at support 1, whose enumeration is unbounded
                # in pattern size.  Legal, but usually a shard/support
                # misconfiguration rather than an intent.
                warnings.warn(
                    "sharded mining with chunk-local support 1 "
                    f"(global threshold {threshold}, {config.shards} "
                    "shards): enumeration may blow up — use fewer "
                    "shards, a higher support, or cap --max-size",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._open_manifest(plan, threshold, chunk_thresholds, max_size)
            source = self._payload_source(database)

            tasks: list[_ShardTask] = []
            for shard in range(config.shards):
                graphs, edges = plan.sizes[shard]
                manifest = self._shard_manifest(
                    plan, shard, chunk_thresholds, max_size
                )
                CheckpointStore(self.shard_dir(shard)).open(manifest)
                payload = dict(
                    source,
                    shard=shard,
                    chunks=manifest["gids"],
                    threshold=chunk_thresholds[shard],
                    max_size=max_size,
                    run_dir=str(self.shard_dir(shard)),
                    result_path=str(self.result_path(shard)),
                    result_meta={
                        "shard": shard,
                        "threshold": chunk_thresholds[shard],
                    },
                )
                record = ShardRecord(shard=shard, graphs=graphs, edges=edges)
                tasks.append(_ShardTask(self, record, payload))

            settled = Supervisor(config.runtime, self.sleep).run(tasks)
            records = [task.record for task in tasks]

            def telemetry(phase: dict) -> RunTelemetry:
                return RunTelemetry(
                    units=[record for _patterns, record in settled],
                    config={"coord": config.to_dict()},
                    total_wall_time=time.perf_counter() - start,
                    coord=coord_digest(records, plan.summary(), phase),
                )

            failed = [r.shard for r in records if r.status == FAILED]
            if failed:
                raise UnitMiningError(failed, telemetry({}))

            shard_results = [patterns for patterns, _record in settled]
            merge_t0 = time.perf_counter()
            with obs.span(
                "coord.global_support", candidates=None
            ) as merge_span:
                merged = merge_candidates(shard_results)
                patterns, phase = global_support(
                    merged, database, threshold
                )
                phase["wall_time"] = time.perf_counter() - merge_t0
                merge_span.set_attrs(
                    candidates=phase["candidates"],
                    frequent=phase["frequent"],
                )
            obs_metrics.observe_phase(
                "global_support", phase["wall_time"]
            )
            run_span.set_attrs(patterns=len(patterns))

        result = CoordResult(
            patterns=patterns,
            threshold=threshold,
            plan=plan,
            telemetry=telemetry(phase),
            shard_results=shard_results,
        )
        result.telemetry.save(self.run_dir / "telemetry.json")
        return result

    # ------------------------------------------------------------------
    # Run identity
    # ------------------------------------------------------------------
    def _open_manifest(
        self,
        plan: ShardPlan,
        threshold: int,
        chunk_thresholds: list[int],
        max_size: int | None,
    ) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        path = self.run_dir / MANIFEST_NAME
        manifest = {
            "version": MANIFEST_VERSION,
            "threshold": threshold,
            "chunk_size": self.config.chunk_size,
            "chunk_thresholds": chunk_thresholds,
            "max_size": max_size,
            "plan": plan.to_dict(),
        }
        if path.exists():
            with open(path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            for key in (
                "threshold",
                "chunk_size",
                "chunk_thresholds",
                "max_size",
                "plan",
            ):
                if existing.get(key) != manifest[key]:
                    raise CheckpointMismatch(
                        f"{self.run_dir} holds a different sharded run "
                        f"({key} differs); shard checkpoints are only "
                        f"valid under the plan that wrote them"
                    )
            return
        integrity.atomic_write_json(path, manifest)

    def _shard_manifest(
        self,
        plan: ShardPlan,
        shard: int,
        chunk_thresholds: list[int],
        max_size: int | None,
    ) -> dict:
        chunks = plan.chunks(shard, self.config.chunk_size)
        return {
            "units": len(chunks),
            "thresholds": [chunk_thresholds[shard]] * len(chunks),
            "max_size": max_size,
            "shard": shard,
            "gids": [list(chunk) for chunk in chunks],
        }

    # ------------------------------------------------------------------
    # Payload source: one SQLite file every worker streams
    # ------------------------------------------------------------------
    def _payload_source(self, database: GraphDatabase) -> dict:
        """``{"sqlite": spec}`` (preferred) or ``{"graphs": [...]}``.

        A database already living in a SQLite backend is referenced in
        place; an in-memory database is spilled into
        ``<run_dir>/spill.db`` once (checksum-upserted, so resumes
        rewrite nothing) — either way the workers open their own
        read-only connections under the per-worker cache budget and the
        shard never materializes in any single process.
        """
        spec = sqlite_spec(database, None)
        if spec is None:
            try:
                with obs.span("coord.spill", graphs=len(database)):
                    spec = sqlite_spec(database, self.run_dir / SPILL_NAME)
            except Exception:
                # No SQLite (or read-only filesystem): workers receive
                # the pickled shard instead — correctness is unchanged,
                # only the out-of-core property is lost.
                return {"graphs": list(database)}
        spec = dict(spec)
        del spec["gids"]  # per-chunk gids come from the plan
        if self.config.mem_budget is not None:
            spec["cache"] = self.config.mem_budget
        return {"sqlite": spec}

    # ------------------------------------------------------------------
    def _read_result(self, shard: int) -> PatternSet:
        """Verified read of a shard's committed result artifact.

        The raw bytes pass through the ``coord.shard_result`` fault
        site, then the sha256 footer is *required* — truncation, bit
        rot and injected corruption all surface as
        :class:`ArtifactCorrupt`, the file is quarantined, and the
        caller re-mines the shard (its chunk checkpoints make that
        cheap).
        """
        path = self.result_path(shard)
        faults.fire(SITE_SHARD_RESULT, shard=shard)
        raw = path.read_bytes()
        raw = faults.mangle(SITE_SHARD_RESULT, raw, shard=shard)
        try:
            text = raw.decode("utf-8")
            payload = integrity.unframe(text, path=path, require=True)
            patterns, _meta = load_patterns(
                iter(payload.splitlines()), path=path
            )
        except ArtifactCorrupt as exc:
            exc.quarantined = integrity.quarantine(path)
            raise
        except (UnicodeDecodeError, ValueError) as exc:
            corrupt = ArtifactCorrupt(
                f"shard {shard} result {path} is corrupt: {exc}"
            )
            corrupt.quarantined = integrity.quarantine(path)
            raise corrupt from exc
        return patterns
