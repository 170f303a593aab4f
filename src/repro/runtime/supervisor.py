"""The process supervisor: spawn → watch → kill → retry → fall back.

The paper calls PartMiner's phase 2 "inherently parallel"; this module
is the one place that runs such independent jobs as supervised worker
processes.  Unit tasks (:mod:`repro.runtime.engine`, ``--parallel``) are
:class:`Task` definitions over it; DESIGN.md §7 draws the state machine.

* every attempt runs in a fresh worker **process**, so a crashed or
  wedged worker cannot poison its successors;
* slot threads (``RuntimeConfig.max_workers`` of them) drain one queue
  whose entries carry a ``not_before`` time — a task that is backing
  off waits in the queue, not in a slot, while other tasks are ready;
* the worker sends exactly one message — ``ok`` with the result or
  ``error`` with its exception — and the parent waits for it in one
  ``poll`` bounded by the wall-clock ``unit_timeout``;
* failed attempts retry after a capped, jittered exponential backoff;
  with the budget spent the task is mined in-process by the real serial
  miner, so an adversarial worker can delay a run but never change its
  answer (or, with ``fallback='none'``, the task is ``failed``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..mining.base import PatternSet
from ..obs import trace as obs_trace
from ..resilience.errors import ArtifactCorrupt
from .config import RuntimeConfig
from .telemetry import AttemptRecord, RunTelemetry, UnitRecord


class UnitMiningError(RuntimeError):
    """One or more tasks failed and no fallback was allowed.

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


class Task:
    """One supervised job; a subclass supplies each lifecycle step.

    ``slot`` is the supervisor slot (``"w0"`` …) running the step.
    """

    index: int
    #: Picklable callable the child runs: ``worker(payload, attempt)``.
    worker: Callable

    def adopt(self) -> PatternSet | None:
        """An earlier run's verified result (a checkpoint), if one exists."""
        return None

    def start(self, attempt: int, slot: str) -> object:
        """The child payload; a raise burns the attempt before any spawn."""
        raise NotImplementedError

    def decode(self, result, record: AttemptRecord) -> PatternSet:
        """Validate the terminal ``ok`` message into patterns (or raise)."""
        raise NotImplementedError

    def degrade(self, record: AttemptRecord, slot: str) -> PatternSet:
        """Mine in-process with the serial miner (the fallback)."""
        raise NotImplementedError

    def attempted(self, record: AttemptRecord, slot: str) -> None:
        """One spawn-or-adopt attempt finished (any outcome)."""

    def settled(
        self, patterns: PatternSet | None, record: UnitRecord, slot: str
    ) -> None:
        """The task reached its final status (``record.status``)."""


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def child_main(worker: Callable, payload: object, attempt: int, conn) -> None:
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


@dataclass
class _Entry:
    """Queue entry: one task's supervision state."""

    task: Task
    attempts: list[AttemptRecord] = field(default_factory=list)
    failures: int = 0
    not_before: float = 0.0
    span: object = None  # the open ``unit.mine`` span, once picked up


class Supervisor:
    """Runs :class:`Task` objects to a settled state under one policy.

    ``sleep`` is the one injectable wait: a slot that finds only
    backing-off tasks takes the soonest and sleeps out the rest of its
    delay (tests pass a recorder).
    """

    def __init__(
        self,
        config: RuntimeConfig,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self.sleep = sleep

    # ------------------------------------------------------------------
    def run(
        self, tasks: list[Task]
    ) -> list[tuple[PatternSet | None, UnitRecord]]:
        """Settle every task; ``(patterns, record)`` pairs in task order.

        ``patterns`` is ``None`` exactly when ``record.status`` is
        ``failed``.  An exception escaping a task hook stops the run and
        is re-raised here once every slot has reaped its worker.
        """
        # ContextVars do not follow the slot threads, so capture the
        # caller's span here and re-enter it on each of them.
        parent = obs_trace.current_span_id()
        queue = [_Entry(task) for task in tasks]
        results: dict[int, tuple[PatternSet | None, UnitRecord]] = {}
        errors: list[BaseException] = []
        cond = threading.Condition()

        def take() -> _Entry | None:
            """The entry whose ``not_before`` comes first (None = done)."""
            with cond:
                while not errors and len(results) < len(tasks):
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
                        done = self._advance(entry, slot)
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    done = None
                    errors.append(exc)
                with cond:
                    if done is None:
                        queue.append(entry)
                    else:
                        results[entry.task.index] = done
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
        return [results[task.index] for task in tasks]

    # ------------------------------------------------------------------
    def _advance(
        self, entry: _Entry, slot: str
    ) -> tuple[PatternSet | None, UnitRecord] | None:
        """One attempt, then route its outcome (None = back to the queue)."""
        if entry.span is None:
            entry.span = obs_trace.begin("unit.mine", unit=entry.task.index)
        with obs_trace.under(entry.span):
            done = self._step(entry, slot)
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
        self, entry: _Entry, slot: str
    ) -> tuple[PatternSet | None, UnitRecord] | None:
        config, task = self.config, entry.task
        patterns = self._attempt(entry, slot)
        last = entry.attempts[-1]
        if patterns is not None:
            status = "checkpoint" if last.outcome == "checkpoint" else "ok"
        elif entry.failures <= config.max_retries:
            last.backoff = config.backoff_delay(
                entry.failures - 1, unit=task.index
            )
            entry.not_before = time.monotonic() + last.backoff
            return None
        elif config.fallback == "serial":
            record = AttemptRecord(
                attempt=len(entry.attempts), outcome="fallback-serial",
                wall_time=0.0, pid=os.getpid(), worker=slot,
            )
            t0 = time.perf_counter()
            try:
                with obs_trace.span("unit.fallback", unit=task.index):
                    patterns = task.degrade(record, slot)
            except Exception as exc:  # noqa: BLE001 - recorded, failed
                record.outcome, record.error = "fallback-error", _describe(exc)
            record.wall_time = time.perf_counter() - t0
            entry.attempts.append(record)
            status = "failed" if patterns is None else "degraded"
        else:
            status = "failed"

        record = UnitRecord(
            unit=task.index,
            status=status,
            attempts=entry.attempts,
            wall_time=sum(a.wall_time for a in entry.attempts),
            patterns=None if patterns is None else len(patterns),
        )
        task.settled(patterns, record, slot)
        return patterns, record

    # ------------------------------------------------------------------
    def _attempt(self, entry: _Entry, slot: str) -> PatternSet | None:
        """Adopt an earlier result or run one worker process; record it."""
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
                patterns = self._adopt_or_spawn(task, record, slot)
            except Exception as exc:  # noqa: BLE001 - retried, never hangs
                record.error = _describe(exc)
            record.wall_time = time.perf_counter() - t0
            span.set_attr("outcome", record.outcome)
            if patterns is None:
                span.set_status("error", record.error or record.outcome)
        entry.attempts.append(record)
        if patterns is None:
            entry.failures += 1
        task.attempted(record, slot)
        return patterns

    def _adopt_or_spawn(
        self, task: Task, record: AttemptRecord, slot: str
    ) -> PatternSet | None:
        config = self.config
        try:
            patterns = task.adopt()
        except ArtifactCorrupt as exc:
            # Bad bytes on disk: the store already quarantined the file,
            # so the retry mines afresh; keep the detection on record.
            record.outcome, record.pid = "checkpoint-corrupt", os.getpid()
            record.error = str(exc)
            return None
        if patterns is not None:
            record.outcome, record.pid = "checkpoint", os.getpid()
            return patterns
        try:
            payload = task.start(record.attempt, slot)
        except Exception as exc:  # noqa: BLE001 - a retryable attempt
            record.outcome, record.error = "error", _describe(exc)
            return None
        # Traced runs hand the trace id + this attempt span to the child
        # so worker-side spans join the same tree.
        handoff = obs_trace.current_handoff()
        if handoff is not None and isinstance(payload, dict):
            payload = dict(payload, obs_trace=handoff)
        ctx = multiprocessing.get_context(config.start_method)
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=child_main,
            args=(task.worker, payload, record.attempt, send),
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
                proc.join(config.kill_grace)
                if proc.is_alive():
                    proc.kill()
                    proc.join(config.kill_grace)
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
                patterns = task.decode(message[1], record)
            except Exception as exc:  # noqa: BLE001 - undecodable result
                outcome, error = "garbage", _describe(exc)
        record.outcome, record.error = outcome, error
        return patterns
