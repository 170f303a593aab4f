"""The unit runtime: PartMiner's phase-2 units in supervised processes.

The paper notes PartMiner's phase 2 is "inherently parallel": after
DBPartition the ``k`` units are independent mining problems.
:class:`MiningRuntime` is the one place that runs them in worker
processes (spawn → watch → kill → retry → fall back; DESIGN.md §7):

* every attempt runs in a fresh worker process, which sends exactly one
  message — ``ok`` with its patterns in a pickle-light wire form that is
  validated on receipt, or ``error`` — read by one ``poll`` bounded by
  the wall-clock ``unit_timeout``;
* slot threads drain one queue whose entries carry a ``not_before``
  time, so a unit backing off waits in the queue, not in a slot;
* failed attempts retry after a capped, jittered exponential backoff;
  with the budget spent the unit is mined in-process by the real serial
  miner, so a hostile worker can delay a run but never change its answer;
* each completed unit is checkpointed at once (when a
  :class:`~repro.runtime.checkpoint.CheckpointStore` is attached), and
  everything that happened is recorded as
  :class:`~repro.runtime.telemetry.RunTelemetry`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from ..mining.base import Pattern, PatternSet, mine_unit
from ..obs import trace as obs_trace
from ..resilience.errors import ArtifactCorrupt
from .checkpoint import CheckpointStore
from .config import RuntimeConfig, backoff_delay
from .telemetry import AttemptRecord, RunTelemetry, UnitRecord

#: Seconds a terminated worker gets to exit before ``SIGKILL``.
KILL_GRACE = 5.0

Worker = Callable[[object, int], object]
Decoder = Callable[[object], PatternSet]


class UnitMiningError(RuntimeError):
    """One or more units failed and had no fallback.

    Carries the run's telemetry (``.telemetry``) so the failure can still
    be post-mortemed.
    """

    def __init__(self, failed: list[int], telemetry: RunTelemetry) -> None:
        super().__init__(
            f"units {failed} failed after exhausting retries "
            f"(no serial fallback)"
        )
        self.failed = failed
        self.telemetry = telemetry


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


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

    database = GraphDatabase(payload["graphs"])
    mined, pruned = mine_unit(
        GastonMiner, database, payload["threshold"], payload.get("max_size")
    )
    obs_trace.annotate(**pruned)
    return encode_patterns(mined)


def child_main(worker: Worker, payload: object, attempt: int, conn) -> None:
    """Worker-process entry: run the worker, report over the pipe.

    Exactly one message: ``("ok", result, spans)`` or ``("error",
    "Type: message")``.  When the payload carries an ``obs_trace``
    handoff (a traced parent run) the child joins the parent's trace:
    the worker runs under a ``unit.worker`` span parented to the
    attempt's, and the collected spans ride back in the ``ok`` message.
    """
    handoff = payload.get("obs_trace") if isinstance(payload, dict) else None
    try:
        if handoff:
            obs_trace.begin_in_child(handoff)
            with obs_trace.span("unit.worker", attempt=attempt):
                result = worker(payload, attempt)
            spans = obs_trace.collect_child_spans()
        else:
            result, spans = worker(payload, attempt), []
        conn.send(("ok", result, spans))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        try:
            conn.send(("error", _describe(exc)))
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


@dataclass
class _Entry:
    """Queue entry: one unit's supervision state."""

    task: UnitTask
    attempts: list[AttemptRecord] = field(default_factory=list)
    not_before: float = 0.0
    span: object = None  # the open ``unit.mine`` span, once picked up


Settled = tuple[PatternSet | None, UnitRecord]
OnComplete = Callable[[int, PatternSet, UnitRecord], None]


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
        The one injectable wait: a slot that finds only backing-off units
        takes the soonest and sleeps out the rest of its delay (tests
        pass a recorder).
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
        on_unit_complete: OnComplete | None = None,
    ) -> RuntimeResult:
        """Settle every task; returns results in task order.

        Units already present in ``checkpoint`` are loaded, not re-mined
        (status ``checkpoint``).  ``on_unit_complete(index, patterns,
        record)`` fires after each *freshly* completed unit has been
        checkpointed — the hook examples use to simulate crashes and CLIs
        use for progress.  Raises :class:`UnitMiningError` if any unit
        ends up ``failed``; an exception escaping the hook or the
        checkpoint store stops the run and is re-raised here once every
        slot has reaped its worker.
        """
        start = time.perf_counter()
        # ContextVars do not follow the slot threads, so capture the
        # caller's span here and re-enter it on each of them.
        parent = obs_trace.current_span_id()
        queue = [_Entry(task) for task in tasks]
        settled: dict[int, Settled] = {}
        errors: list[BaseException] = []
        cond = threading.Condition()

        def take() -> _Entry | None:
            """The entry whose ``not_before`` comes first (None = done)."""
            with cond:
                while not errors and len(settled) < len(tasks):
                    if queue:
                        entry = min(queue, key=lambda e: e.not_before)
                        queue.remove(entry)
                        return entry
                    cond.wait()
                return None

        def slot_main(slot: str) -> None:
            while (entry := take()) is not None:
                delay = entry.not_before - time.monotonic()
                if delay > 0:
                    self.sleep(delay)
                try:
                    with obs_trace.under(parent):
                        done = self._advance(
                            entry, slot, checkpoint, on_unit_complete
                        )
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    done = None
                    errors.append(exc)
                with cond:
                    if done is None:
                        queue.append(entry)
                    else:
                        settled[entry.task.index] = done
                    cond.notify_all()

        workers = self.config.max_workers or os.cpu_count() or 1
        slots = [
            threading.Thread(target=slot_main, args=(f"w{i}",), daemon=True)
            for i in range(min(workers, len(tasks)))
        ]
        for thread in slots:
            thread.start()
        for thread in slots:
            thread.join()
        if errors:
            raise errors[0]
        results = [settled[task.index] for task in tasks]
        telemetry = RunTelemetry(
            units=[record for _patterns, record in results],
            total_wall_time=time.perf_counter() - start,
        )
        failed = [
            record.unit for record in telemetry.units
            if record.status == "failed"
        ]
        if failed:
            raise UnitMiningError(failed, telemetry)
        return RuntimeResult(
            unit_results=[patterns for patterns, _record in results],
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------
    def _advance(
        self, entry: _Entry, slot: str, checkpoint, on_complete
    ) -> Settled | None:
        """One attempt under the unit's span (None = back to the queue)."""
        if entry.span is None:
            entry.span = obs_trace.begin("unit.mine", unit=entry.task.index)
        with obs_trace.under(entry.span):
            done = self._step(entry, slot, checkpoint, on_complete)
        if done is not None:
            record = done[1]
            entry.span.set_attrs(
                status=record.status, attempts=len(record.attempts),
                patterns=record.patterns,
            )
            if record.status == "failed":
                entry.span.set_status("error", "unit failed")
            obs_trace.finish(entry.span)
        return done

    def _step(
        self, entry: _Entry, slot: str, checkpoint, on_complete
    ) -> Settled | None:
        """Attempt; then back off, fall back or settle the unit."""
        task = entry.task
        patterns = self._attempt(entry, slot, checkpoint)
        last = entry.attempts[-1]
        if patterns is not None:
            status = "checkpoint" if last.outcome == "checkpoint" else "ok"
        elif len(entry.attempts) <= self.config.max_retries:
            # Every attempt so far failed: a requeued unit never settled.
            last.backoff = backoff_delay(last.attempt, unit=task.index)
            entry.not_before = time.monotonic() + last.backoff
            return None
        else:
            patterns = self._fallback(entry, slot)
            status = "failed" if patterns is None else "degraded"

        record = UnitRecord(
            unit=task.index,
            status=status,
            attempts=entry.attempts,
            wall_time=sum(a.wall_time for a in entry.attempts),
            patterns=None if patterns is None else len(patterns),
        )
        if status in ("ok", "degraded"):
            # Adopted units are on disk already; failed ones have nothing.
            if checkpoint is not None:
                with obs_trace.span("unit.checkpoint_save", unit=task.index):
                    checkpoint.save(
                        task.index, patterns,
                        meta={"status": status, **task.checkpoint_meta},
                    )
            if on_complete is not None:
                on_complete(task.index, patterns, record)
        return patterns, record

    def _fallback(self, entry: _Entry, slot: str) -> PatternSet | None:
        """Mine in-process with the serial miner; record the attempt."""
        task = entry.task
        record = AttemptRecord(
            attempt=len(entry.attempts), outcome="fallback-serial",
            wall_time=0.0, pid=os.getpid(), worker=slot,
        )
        patterns = None
        t0 = time.perf_counter()
        try:
            with obs_trace.span("unit.fallback", unit=task.index):
                if task.fallback is None:
                    raise RuntimeError("unit task has no serial fallback")
                patterns = task.fallback()
        except Exception as exc:  # noqa: BLE001 - recorded, failed
            record.outcome, record.error = "fallback-error", _describe(exc)
        record.wall_time = time.perf_counter() - t0
        entry.attempts.append(record)
        return patterns

    # ------------------------------------------------------------------
    def _attempt(
        self, entry: _Entry, slot: str, checkpoint
    ) -> PatternSet | None:
        """Adopt a checkpoint or run one worker process; record it."""
        task = entry.task
        record = AttemptRecord(
            attempt=len(entry.attempts), outcome="error", wall_time=0.0,
            worker=slot,
        )
        patterns = None
        t0 = time.perf_counter()
        with obs_trace.span(
            "unit.attempt", unit=task.index, attempt=record.attempt,
            slot=slot,
        ) as span:
            try:
                if checkpoint is not None and checkpoint.has(task.index):
                    patterns = self._adopt(task.index, checkpoint, record)
                else:
                    patterns = self._spawn(task, record)
            except Exception as exc:  # noqa: BLE001 - retried, never hangs
                record.error = _describe(exc)
            record.wall_time = time.perf_counter() - t0
            span.set_attrs(outcome=record.outcome, pid=record.pid)
            if patterns is None:
                span.set_status("error", record.error or record.outcome)
        entry.attempts.append(record)
        return patterns

    @staticmethod
    def _adopt(
        index: int, checkpoint: CheckpointStore, record: AttemptRecord
    ) -> PatternSet | None:
        """An earlier run's verified result for unit ``index``."""
        try:
            with obs_trace.span("unit.checkpoint_load", unit=index):
                patterns = checkpoint.load(index)
        except ArtifactCorrupt as exc:
            # Bad bytes on disk: the store already quarantined the file,
            # so the retry mines afresh; keep the detection on record.
            record.outcome, record.pid = "checkpoint-corrupt", os.getpid()
            record.error = str(exc)
            return None
        record.outcome, record.pid = "checkpoint", os.getpid()
        return patterns

    def _spawn(
        self, task: UnitTask, record: AttemptRecord
    ) -> PatternSet | None:
        """One worker process: spawn, one bounded poll, reap, decode."""
        config = self.config
        payload = task.payload
        # Traced runs hand the trace id + this attempt span to the child
        # so worker-side spans join the same tree.
        handoff = obs_trace.current_handoff()
        if handoff is not None and isinstance(payload, dict):
            payload = dict(payload, obs_trace=handoff)
        ctx = multiprocessing.get_context(config.start_method)
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=child_main,
            args=(self.worker, payload, record.attempt, send),
            daemon=True,
        )
        proc.start()
        send.close()
        record.pid = proc.pid

        outcome = error = message = None
        try:
            # One blocking poll, bounded by the wall-clock timeout (None
            # waits for as long as the worker runs).
            if not recv.poll(config.unit_timeout):
                outcome = "timeout"
                error = f"no result within {config.unit_timeout}s"
            else:
                try:
                    message = recv.recv()
                except EOFError:
                    outcome = "crash"
                    error = "worker died without a report"
                else:
                    outcome = message[0]
                    if outcome != "ok":
                        outcome, error = "error", message[1]
        finally:
            if proc.is_alive():
                proc.terminate()
                proc.join(KILL_GRACE)
                if proc.is_alive():
                    proc.kill()
                    proc.join(KILL_GRACE)
            else:
                proc.join()
            recv.close()

        patterns = None
        if outcome == "crash" and proc.exitcode not in (None, 0):
            error = f"worker exit code {proc.exitcode}"
        if outcome == "ok":
            tracer = obs_trace.active()
            if tracer is not None:
                tracer.adopt(message[2])
            # The worker *reported* — but its result may still be
            # nonsense, which counts as a failed (retried) attempt.
            try:
                patterns = self.decode(message[1])
            except Exception as exc:  # noqa: BLE001 - undecodable result
                outcome, error = "garbage", _describe(exc)
        record.outcome, record.error = outcome, error
        return patterns


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

    A unit ships as its ``(gid, graph)`` list: inherited by a forked
    worker, pickled once per attempt under ``forkserver`` / ``spawn``.
    A unit whose database is a SQLite store view is decoded here first.
    """

    def make_fallback(unit, threshold):
        def fallback() -> PatternSet:
            from ..mining.gaston import GastonMiner

            factory = miner_factory or GastonMiner
            return mine_unit(factory, unit.database, threshold, max_size)[0]

        return fallback

    tasks = [
        UnitTask(
            index=i,
            payload={
                "graphs": list(unit.database),
                "threshold": threshold,
                "max_size": max_size,
            },
            fallback=make_fallback(unit, threshold),
            checkpoint_meta={"threshold": threshold},
        )
        for i, (unit, threshold) in enumerate(zip(units, thresholds))
    ]
    runtime = MiningRuntime(config or RuntimeConfig(), worker=worker)
    return runtime.run(
        tasks, checkpoint=checkpoint, on_unit_complete=on_unit_complete
    )
