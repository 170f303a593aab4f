"""Fault-tolerant parallel execution engine for unit mining.

The paper notes PartMiner's phase 2 is "inherently parallel": after
DBPartition the ``k`` units are independent mining problems.  This engine
runs them with production-grade fault tolerance instead of a bare pool:

* every *attempt* runs in its own worker **process** (a fresh one per
  attempt, so a crashed or wedged worker cannot poison its successors) and
  is bounded by a wall-clock timeout — on expiry the process is killed;
* failed attempts (timeout, crash, raised exception, garbage result) are
  retried with capped exponential backoff up to ``max_retries`` times;
* once the retry budget is exhausted the unit *degrades*: it is mined
  in-process by the real serial miner, so an adversarial worker can delay
  a run but never change its answer;
* each completed unit is checkpointed immediately (when a
  :class:`~repro.runtime.checkpoint.CheckpointStore` is attached), so a
  killed run resumes by skipping finished units;
* everything that happened is recorded as structured telemetry
  (:class:`~repro.runtime.telemetry.RunTelemetry`).

Concurrency model: up to ``max_workers`` units are in flight at once, each
driven by a supervisor thread that owns the unit's retry loop and blocks
on its current worker process.  Threads are cheap here — all heavy lifting
happens in the worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from ..mining.base import Pattern, PatternSet
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resilience import faults
from ..resilience.errors import ArtifactCorrupt
from .checkpoint import CheckpointStore
from .config import RuntimeConfig
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


def resolve_payload_database(payload: dict) -> GraphDatabase:
    """The unit database a worker payload describes.

    Three wire forms: ``graphs`` carries a pickled ``(gid, graph)`` list
    (the original protocol); ``shm`` names a shared-memory flat-array
    segment published by the parent (see
    :mod:`repro.perf.flatgraph`) — the worker maps it, rebuilds the
    graphs, and **adopts** the mapping as the rebuilt database's flat
    compilation, so the worker's own support counting runs straight on
    the zero-copy segment views instead of recompiling CSR buffers it
    already has mapped; ``sqlite`` references a storage-backend database
    file (path + optional gid subset + cache budget) — the worker opens
    its **own read-only connection** (never the parent's, which does not
    survive a fork) and streams rows through a bounded decode cache, so
    a unit larger than RAM never materializes in the worker either.
    Resources are held for the worker process's lifetime (one attempt
    per process; the OS reclaims them on exit, and the storage layer's
    atexit sweep closes connections).
    """
    spec = payload.get("sqlite")
    if spec is not None:
        from ..storage.backend import open_backend

        backend = open_backend(
            "sqlite",
            spec["path"],
            cache_graphs=spec.get("cache"),
            read_only=True,
        )
        return backend.database(gids=spec.get("gids"))
    name = payload.get("shm")
    if name is not None:
        from ..perf.flatgraph import attach_segment

        flat = attach_segment(name)
        try:
            database = flat.to_database()
        except BaseException:
            flat.release()
            raise
        flat.adopt(database)
        return database
    return GraphDatabase(payload["graphs"])


def mine_unit_worker(payload: dict, attempt: int) -> list:
    """Default worker: Gaston over one unit's piece database.

    ``attempt`` (the 0-based attempt number) is part of the worker
    protocol so shims — fault injectors, samplers — can vary behaviour
    across retries; the default miner ignores it.
    """
    from ..mining.gaston import GastonMiner

    database = resolve_payload_database(payload)
    miner = GastonMiner(max_size=payload.get("max_size"))
    mined = miner.mine(database, payload["threshold"])
    obs_trace.annotate(**miner.stats.prune_attrs())
    return encode_patterns(mined)


def _child_main(worker: Worker, payload: object, attempt: int, conn) -> None:
    """Worker-process entry: run the worker, report over the pipe.

    When the attempt payload carries an ``obs_trace`` handoff (a traced
    parent run), the child joins the parent's trace: its work runs under
    a ``unit.worker`` span and the collected spans ride back in a third
    message element — ``("ok", result, spans)``.  Untraced payloads keep
    the original two-element protocol byte for byte.
    """
    handoff = (
        payload.get("obs_trace") if isinstance(payload, dict) else None
    )
    try:
        if handoff:
            obs_trace.begin_in_child(handoff)
            with obs_trace.span("unit.worker", attempt=attempt):
                result = worker(payload, attempt)
            conn.send(("ok", result, obs_trace.collect_child_spans()))
        else:
            result = worker(payload, attempt)
            conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


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


class UnitMiningError(RuntimeError):
    """One or more units failed and no fallback was allowed.

    Carries the run's telemetry (``.telemetry``) so the failure can still
    be post-mortemed.
    """

    def __init__(self, failed: list[int], telemetry: RunTelemetry) -> None:
        super().__init__(
            f"units {failed} failed after exhausting retries "
            f"(fallback disabled)"
        )
        self.failed = failed
        self.telemetry = telemetry


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
        Injectable clock for backoff (tests pass a recorder).
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

    # ------------------------------------------------------------------
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
        results: dict[int, PatternSet | None] = {}
        records: dict[int, UnitRecord] = {}
        # ContextVars do not follow the supervisor threads below, so
        # capture the caller's span here and parent unit spans explicitly.
        parent_span = obs_trace.current_span_id()

        fresh: list[UnitTask] = []
        corrupt_checkpoints: dict[int, AttemptRecord] = {}
        for task in tasks:
            if checkpoint is not None and checkpoint.has(task.index):
                t0 = time.perf_counter()
                try:
                    with obs_trace.span(
                        "unit.checkpoint_load", unit=task.index
                    ):
                        patterns = checkpoint.load(task.index)
                except ArtifactCorrupt as exc:
                    # Bad bytes on disk: the store already quarantined
                    # the file; fall back to re-mining this unit and
                    # keep the detection in the telemetry record.
                    corrupt_checkpoints[task.index] = AttemptRecord(
                        attempt=0,
                        outcome="checkpoint-corrupt",
                        wall_time=time.perf_counter() - t0,
                        pid=os.getpid(),
                        error=str(exc),
                    )
                    fresh.append(task)
                    continue
                elapsed = time.perf_counter() - t0
                results[task.index] = patterns
                records[task.index] = UnitRecord(
                    unit=task.index,
                    status="checkpoint",
                    attempts=[
                        AttemptRecord(
                            attempt=0,
                            outcome="checkpoint",
                            wall_time=elapsed,
                            pid=os.getpid(),
                        )
                    ],
                    wall_time=elapsed,
                    patterns=len(patterns),
                )
            else:
                fresh.append(task)

        if fresh:
            max_workers = self.config.max_workers or os.cpu_count() or 1
            with ThreadPoolExecutor(
                max_workers=min(max_workers, len(fresh))
            ) as pool:
                for task, (patterns, record) in zip(
                    fresh,
                    pool.map(
                        lambda t: self._run_unit(
                            t, checkpoint, on_unit_complete, parent_span
                        ),
                        fresh,
                    ),
                ):
                    results[task.index] = patterns
                    records[task.index] = record
                    seen_corrupt = corrupt_checkpoints.get(task.index)
                    if seen_corrupt is not None:
                        record.attempts.insert(0, seen_corrupt)

        telemetry = RunTelemetry(
            units=[records[task.index] for task in tasks],
            config=self.config.to_dict(),
            total_wall_time=time.perf_counter() - start,
        )
        failed = [
            task.index
            for task in tasks
            if records[task.index].status == "failed"
        ]
        if failed:
            raise UnitMiningError(failed, telemetry)
        return RuntimeResult(
            unit_results=[results[task.index] for task in tasks],
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    def _run_unit(
        self,
        task: UnitTask,
        checkpoint: CheckpointStore | None,
        on_unit_complete,
        parent_span: str | None = None,
    ) -> tuple[PatternSet | None, UnitRecord]:
        """Retry loop for one unit (runs on a supervisor thread)."""
        config = self.config
        start = time.perf_counter()
        attempts: list[AttemptRecord] = []
        patterns: PatternSet | None = None

        with obs_trace.span(
            "unit.mine", parent=parent_span, unit=task.index
        ) as unit_span:
            for attempt in range(config.max_retries + 1):
                record, mined = self._attempt(task, attempt)
                attempts.append(record)
                if record.outcome == "ok":
                    patterns = mined
                    break
                if attempt < config.max_retries:
                    delay = config.backoff_delay(attempt, unit=task.index)
                    record.backoff = delay
                    if delay > 0:
                        self.sleep(delay)

            if patterns is not None:
                status = "ok"
            elif config.fallback == "serial" and task.fallback is not None:
                t0 = time.perf_counter()
                try:
                    with obs_trace.span("unit.fallback", unit=task.index):
                        faults.fire(SITE_FALLBACK, unit=task.index)
                        patterns = task.fallback()
                except Exception as exc:  # noqa: BLE001 - recorded, failed
                    attempts.append(
                        AttemptRecord(
                            attempt=len(attempts),
                            outcome="fallback-error",
                            wall_time=time.perf_counter() - t0,
                            pid=os.getpid(),
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    status = "failed"
                else:
                    attempts.append(
                        AttemptRecord(
                            attempt=len(attempts),
                            outcome="fallback-serial",
                            wall_time=time.perf_counter() - t0,
                            pid=os.getpid(),
                        )
                    )
                    status = "degraded"
            else:
                status = "failed"

            unit_span.set_attrs(
                status=status, attempts=len(attempts),
                patterns=None if patterns is None else len(patterns),
            )
            if status == "failed":
                unit_span.set_status("error", "unit failed")
            obs_metrics.count_unit_status(status)

            record = UnitRecord(
                unit=task.index,
                status=status,
                attempts=attempts,
                wall_time=time.perf_counter() - start,
                patterns=None if patterns is None else len(patterns),
            )
            if patterns is not None:
                if checkpoint is not None:
                    with obs_trace.span(
                        "unit.checkpoint_save", unit=task.index
                    ):
                        checkpoint.save(
                            task.index,
                            patterns,
                            meta={"status": status, **task.checkpoint_meta},
                        )
                if on_unit_complete is not None:
                    on_unit_complete(task.index, patterns, record)
        return patterns, record

    # ------------------------------------------------------------------
    def _attempt(
        self, task: UnitTask, attempt: int
    ) -> tuple[AttemptRecord, PatternSet | None]:
        """Run one attempt in a fresh worker process."""
        config = self.config
        start = time.perf_counter()
        with obs_trace.span(
            "unit.attempt", unit=task.index, attempt=attempt
        ) as attempt_span:
            record, patterns = self._attempt_inner(task, attempt, start)
            attempt_span.set_attr("outcome", record.outcome)
            if record.outcome != "ok":
                attempt_span.set_status("error", record.error or record.outcome)
            obs_metrics.count_runtime_attempt(record.outcome)
        return record, patterns

    def _attempt_inner(
        self, task: UnitTask, attempt: int, start: float
    ) -> tuple[AttemptRecord, PatternSet | None]:
        config = self.config
        try:
            faults.fire(
                SITE_WORKER_START, unit=task.index, attempt=attempt
            )
        except Exception as exc:  # noqa: BLE001 - a retryable attempt
            return (
                AttemptRecord(
                    attempt=attempt,
                    outcome="error",
                    wall_time=time.perf_counter() - start,
                    pid=None,
                    error=f"{type(exc).__name__}: {exc}",
                ),
                None,
            )
        # Traced runs hand the trace id + this attempt span to the child
        # so worker-side spans join the same tree; untraced payloads are
        # byte-identical to the pre-obs protocol.
        payload = task.payload
        handoff = obs_trace.current_handoff()
        if handoff is not None and isinstance(payload, dict):
            payload = dict(payload, obs_trace=handoff)
        ctx = multiprocessing.get_context(config.start_method)
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main,
            args=(self.worker, payload, attempt, send),
            daemon=True,
        )
        proc.start()
        send.close()

        outcome = error = None
        raw = None
        child_spans: list[dict] = []
        try:
            if recv.poll(config.unit_timeout):
                try:
                    message = recv.recv()
                except EOFError:
                    message = None
                if message is None:
                    outcome, error = "crash", "worker died without a report"
                elif message[0] == "ok":
                    raw = message[1]
                    if len(message) > 2 and isinstance(message[2], list):
                        child_spans = message[2]
                else:
                    outcome, error = "error", message[1]
            else:
                outcome = "timeout"
                error = f"no result within {config.unit_timeout}s"
        finally:
            pid = proc.pid
            if proc.is_alive():
                proc.terminate()
                proc.join(config.kill_grace)
                if proc.is_alive():
                    proc.kill()
                    proc.join(config.kill_grace)
            else:
                proc.join()
            recv.close()

        if child_spans:
            tracer = obs_trace.active()
            if tracer is not None:
                tracer.adopt(child_spans)

        patterns = None
        if raw is not None:
            # A clean exit code but an empty pipe is already handled above;
            # here the worker *reported* — but its payload may still be
            # nonsense, which counts as a failed (retried) attempt.
            try:
                patterns = self.decode(raw)
            except Exception as exc:  # noqa: BLE001 - garbage result
                outcome = "garbage"
                error = f"{type(exc).__name__}: {exc}"
            else:
                outcome = "ok"
        if outcome == "crash" and proc.exitcode not in (None, 0):
            error = f"worker exit code {proc.exitcode}"

        return (
            AttemptRecord(
                attempt=attempt,
                outcome=outcome,
                wall_time=time.perf_counter() - start,
                pid=pid,
                error=error,
            ),
            patterns,
        )


# ----------------------------------------------------------------------
# High-level entry point used by PartMiner, IncPartMiner and the bench.
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

    When the acceleration layer is on and ``config.shared_db`` allows it,
    each unit's database is published once as a read-only shared-memory
    flat-array segment and attempts receive only its name — re-pickling
    the graph list per attempt disappears.  Each published segment is
    verified by an in-process attach (which is also the ``perf.shm_attach``
    fault site); any failure quietly reverts that unit to the pickled
    payload.  Segments are always destroyed before this function returns,
    so crashed or killed workers cannot leak them.

    Disk-backed units take precedence over both: a unit whose database
    already lives in a SQLite storage backend ships only a read-only
    database reference, and with ``config.spill_dir`` set, in-memory
    unit databases are first *spilled* into per-unit SQLite files there
    — either way workers open their own connections and the parent never
    pickles a graph list.  Spill files are removed before returning.
    """
    from .. import perf

    def make_fallback(unit, threshold):
        def fallback() -> PatternSet:
            from ..mining.gaston import GastonMiner

            factory = miner_factory or GastonMiner
            miner = factory()
            if max_size is not None and hasattr(miner, "max_size"):
                miner.max_size = max_size
            return miner.mine(unit.database, threshold)

        return fallback

    resolved_config = config or RuntimeConfig()
    use_shm = resolved_config.shared_db and perf.enabled()
    segments = []
    spilled: list = []

    def sqlite_spec(index: int, database: GraphDatabase):
        """A ``sqlite`` payload spec for the unit, or ``None``."""
        store = getattr(database, "_graphs", None)
        spec = getattr(store, "payload_spec", None)
        if spec is not None:
            return spec()
        if resolved_config.spill_dir is None:
            return None
        from pathlib import Path

        from ..storage.sqlite import SQLiteBackend

        spill_dir = Path(resolved_config.spill_dir)
        spill_dir.mkdir(parents=True, exist_ok=True)
        path = spill_dir / f"unit-{index:04d}.db"
        backend = SQLiteBackend(path)
        try:
            backend.import_database(database)
            backend.checkpoint()
        finally:
            backend.close()
        spilled.append(path)
        return {"path": str(path.resolve()), "gids": None, "cache": None}

    def unit_payload(index, unit, threshold) -> dict:
        spec = sqlite_spec(index, unit.database)
        if spec is not None:
            return {
                "sqlite": spec,
                "threshold": threshold,
                "max_size": max_size,
            }
        payload = {
            "graphs": list(unit.database),
            "threshold": threshold,
            "max_size": max_size,
        }
        if not use_shm:
            return payload
        from ..perf import flatgraph

        try:
            segment = flatgraph.FlatSegment.publish(
                flatgraph.get_flat_db(unit.database)
            )
        except Exception:
            return payload
        try:
            # Verify round-trip before shipping the name to workers;
            # this attach is the parent-side perf.shm_attach fault site.
            check = flatgraph.attach_segment(segment.name)
            same = check.gids == unit.database.gids()
            check.release()
            if not same:
                raise ValueError("segment gids diverge from unit database")
        except Exception:
            segment.destroy()
            return payload
        segments.append(segment)
        del payload["graphs"]
        payload["shm"] = segment.name
        return payload

    tasks = [
        UnitTask(
            index=i,
            payload=unit_payload(i, unit, threshold),
            fallback=make_fallback(unit, threshold),
            checkpoint_meta={"threshold": threshold},
        )
        for i, (unit, threshold) in enumerate(zip(units, thresholds))
    ]
    runtime = MiningRuntime(resolved_config, worker=worker)
    try:
        return runtime.run(
            tasks, checkpoint=checkpoint, on_unit_complete=on_unit_complete
        )
    finally:
        for segment in segments:
            segment.destroy()
        for path in spilled:
            for side in (path, path.with_name(path.name + "-wal"),
                         path.with_name(path.name + "-shm")):
                try:
                    side.unlink()
                except OSError:
                    pass
