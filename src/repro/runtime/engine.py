"""Unit tasks: PartMiner's phase-2 units on the process supervisor.

The paper notes PartMiner's phase 2 is "inherently parallel": after
DBPartition the ``k`` units are independent mining problems.  This module
defines them as tasks of :mod:`repro.runtime.supervisor` (which owns the
attempt lifecycle, retries, backoff and the serial fallback) and adds
what is particular to units:

* the worker returns its patterns over the pipe in a pickle-light wire
  form that is validated on receipt (a malformed one is a ``garbage``
  attempt);
* each completed unit is checkpointed immediately (when a
  :class:`~repro.runtime.checkpoint.CheckpointStore` is attached), so a
  killed run resumes by adopting finished units;
* everything that happened is recorded as structured telemetry
  (:class:`~repro.runtime.telemetry.RunTelemetry`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..graph.labeled_graph import LabeledGraph
from ..mining.base import Pattern, PatternSet, mine_unit
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience import faults
from .checkpoint import CheckpointStore
from .config import RuntimeConfig
from .payload import payload_database, sqlite_spec
from .supervisor import Supervisor, Task, UnitMiningError
from .telemetry import AttemptRecord, RunTelemetry, UnitRecord

SITE_WORKER_START = faults.register_site(
    "runtime.worker_start", "spawning a unit-mining worker process"
)
SITE_FALLBACK = faults.register_site(
    "runtime.fallback", "in-process serial fallback miner call"
)

Worker = Callable[[object, int], object]
Decoder = Callable[[object], PatternSet]


# ----------------------------------------------------------------------
# Default worker: mine one unit with Gaston (the paper's unit miner).
# ----------------------------------------------------------------------
def encode_patterns(patterns: PatternSet) -> list:
    """Pickle-light wire form of a pattern set (what workers return)."""
    return [
        [
            pattern.graph.vertex_labels(),
            [[u, v, label] for u, v, label in pattern.graph.edges()],
            sorted(pattern.tids),
        ]
        for pattern in patterns
    ]


def decode_patterns(raw: object) -> PatternSet:
    """Validate + decode a worker result; raises on anything malformed."""
    if not isinstance(raw, list):
        raise ValueError(f"worker returned {type(raw).__name__}, not a list")
    patterns = PatternSet()
    for entry in raw:
        vertices, edges, tids = entry  # raises on wrong shape
        graph = LabeledGraph.from_vertices_and_edges(
            list(vertices), [(u, v, label) for u, v, label in edges]
        )
        patterns.add(Pattern.from_graph(graph, [int(t) for t in tids]))
    return patterns


def mine_unit_worker(payload: dict, attempt: int) -> list:
    """Default worker: Gaston over one unit's piece database.

    ``attempt`` (the 0-based attempt number) is part of the worker
    protocol so shims — fault injectors, samplers — can vary behaviour
    across retries; the default miner ignores it.
    """
    from ..mining.gaston import GastonMiner

    database, threshold = payload_database(payload), payload["threshold"]
    mined, pruned = mine_unit(
        GastonMiner, database, threshold, payload.get("max_size")
    )
    obs_trace.annotate(**pruned)
    return encode_patterns(mined)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass
class UnitTask:
    """One unit of work: a payload for the worker + an in-process fallback."""

    index: int
    payload: object
    fallback: Callable[[], PatternSet] | None = None
    checkpoint_meta: dict = field(default_factory=dict)


@dataclass
class RuntimeResult:
    """What a run produced: per-unit pattern sets + full telemetry."""

    unit_results: list[PatternSet]
    telemetry: RunTelemetry


class _SupervisedUnit(Task):
    """A :class:`UnitTask` bound to one run's worker, store and hook."""

    def __init__(self, task: UnitTask, runtime, checkpoint, on_complete):
        self.task, self.index = task, task.index
        self.worker, self._decode = runtime.worker, runtime.decode
        self._checkpoint, self._on_complete = checkpoint, on_complete

    def adopt(self) -> PatternSet | None:
        store = self._checkpoint
        if store is None or not store.has(self.index):
            return None
        with obs_trace.span("unit.checkpoint_load", unit=self.index):
            return store.load(self.index)

    def start(self, attempt: int, slot: str) -> object:
        faults.fire(SITE_WORKER_START, unit=self.index, attempt=attempt)
        return self.task.payload

    def decode(self, result, record: AttemptRecord) -> PatternSet:
        return self._decode(result)

    def degrade(self, record: AttemptRecord, slot: str) -> PatternSet:
        if self.task.fallback is None:
            raise RuntimeError("unit task has no serial fallback")
        faults.fire(SITE_FALLBACK, unit=self.index)
        return self.task.fallback()

    def attempted(self, record: AttemptRecord, slot: str) -> None:
        obs_metrics.count_runtime_attempt(record.outcome)

    def settled(self, patterns, record: UnitRecord, slot: str) -> None:
        obs_metrics.count_unit_status(record.status)
        if record.status not in ("ok", "degraded"):
            return  # adopted units are on disk already; failed have nothing
        if self._checkpoint is not None:
            with obs_trace.span("unit.checkpoint_save", unit=self.index):
                self._checkpoint.save(
                    self.index,
                    patterns,
                    meta={
                        "status": record.status, **self.task.checkpoint_meta
                    },
                )
        if self._on_complete is not None:
            self._on_complete(self.index, patterns, record)


class MiningRuntime:
    """Fault-tolerant parallel executor for unit-mining tasks.

    Parameters
    ----------
    config:
        Execution policy (:class:`RuntimeConfig`); defaults apply if
        omitted.
    worker:
        Top-level picklable callable ``worker(payload, attempt)`` run in a
        fresh process per attempt.  Tests substitute fault-injecting shims.
    decode:
        Validates/decodes the worker's raw return into a
        :class:`PatternSet`; a raise counts as a ``garbage`` attempt.
    sleep:
        Injectable wait for backoff (tests pass a recorder).
    """

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        *,
        worker: Worker = mine_unit_worker,
        decode: Decoder = decode_patterns,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config or RuntimeConfig()
        self.worker = worker
        self.decode = decode
        self.sleep = sleep

    def run(
        self,
        tasks: list[UnitTask],
        *,
        checkpoint: CheckpointStore | None = None,
        on_unit_complete: Callable[[int, PatternSet, UnitRecord], None]
        | None = None,
    ) -> RuntimeResult:
        """Execute every task; returns results in task order.

        Units already present in ``checkpoint`` are loaded, not re-mined
        (status ``checkpoint``).  ``on_unit_complete(index, patterns,
        record)`` fires after each *freshly* completed unit has been
        checkpointed — the hook examples use to simulate crashes and CLIs
        use for progress.  Raises :class:`UnitMiningError` if any unit
        ends up ``failed``.
        """
        start = time.perf_counter()
        settled = Supervisor(self.config, self.sleep).run(
            [
                _SupervisedUnit(task, self, checkpoint, on_unit_complete)
                for task in tasks
            ]
        )
        telemetry = RunTelemetry(
            units=[record for _patterns, record in settled],
            config=self.config.to_dict(),
            total_wall_time=time.perf_counter() - start,
        )
        failed = [
            record.unit for record in telemetry.units
            if record.status == "failed"
        ]
        if failed:
            raise UnitMiningError(failed, telemetry)
        return RuntimeResult(
            unit_results=[patterns for patterns, _record in settled],
            telemetry=telemetry,
        )


# ----------------------------------------------------------------------
# High-level entry point: PartMiner's parallel unit-mining step.
# ----------------------------------------------------------------------
def run_unit_mining(
    units,
    thresholds: list[int],
    *,
    max_size: int | None = None,
    config: RuntimeConfig | None = None,
    checkpoint: CheckpointStore | None = None,
    miner_factory: Callable[[], object] | None = None,
    worker: Worker = mine_unit_worker,
    on_unit_complete=None,
) -> RuntimeResult:
    """Mine partition units through the fault-tolerant runtime.

    ``units`` are :class:`~repro.partition.units.PartitionNode` leaves and
    ``thresholds`` their absolute support thresholds.  The serial fallback
    (and nothing else) uses ``miner_factory`` — the worker processes run
    ``worker`` (Gaston by default), matching the paper's unit miner.

    An in-memory unit ships as its ``(gid, graph)`` list: inherited by a
    forked worker, pickled once per attempt under ``forkserver`` /
    ``spawn``.  A unit whose database already lives in a SQLite storage
    backend ships only a read-only database reference; the worker opens
    its own connection.
    """

    def make_fallback(unit, threshold):
        def fallback() -> PatternSet:
            from ..mining.gaston import GastonMiner

            factory = miner_factory or GastonMiner
            return mine_unit(factory, unit.database, threshold, max_size)[0]

        return fallback

    def unit_payload(unit, threshold) -> dict:
        spec = sqlite_spec(unit.database)
        source = (
            {"graphs": list(unit.database)} if spec is None
            else {"sqlite": spec}
        )
        return {**source, "threshold": threshold, "max_size": max_size}

    tasks = [
        UnitTask(
            index=i,
            payload=unit_payload(unit, threshold),
            fallback=make_fallback(unit, threshold),
            checkpoint_meta={"threshold": threshold},
        )
        for i, (unit, threshold) in enumerate(zip(units, thresholds))
    ]
    runtime = MiningRuntime(config or RuntimeConfig(), worker=worker)
    return runtime.run(
        tasks, checkpoint=checkpoint, on_unit_complete=on_unit_complete
    )
