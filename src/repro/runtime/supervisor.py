"""The process supervisor: spawn → watch → kill → retry → fall back.

The paper calls PartMiner's phase 2 "inherently parallel"; this module
is the one place that runs such independent jobs as supervised worker
processes.  Unit tasks (:mod:`repro.runtime.engine`, ``--parallel``) and
shard tasks (:mod:`repro.coord.coordinator`, ``--shards``) are both
:class:`Task` definitions over it; DESIGN.md §7 draws the state machine.

* every attempt runs in a fresh worker **process**, so a crashed or
  wedged worker cannot poison its successors;
* slot threads (``RuntimeConfig.max_workers`` of them) drain one queue
  whose entries carry a ``not_before`` time — a task that is backing
  off waits in the queue, not in a slot, while other tasks are ready;
* the read loop understands three message kinds — a *beat* renews the
  attempt's :class:`Lease`, a terminal ``ok`` carries the result, a
  terminal ``error`` the worker's exception — and checks two stop rules:
  the wall-clock ``unit_timeout`` and the lease TTL.  A task that never
  beats has no TTL, so its loop is a single blocking ``poll``;
* failed attempts retry after a capped, jittered exponential backoff;
  with the budget spent the task is mined in-process by the real serial
  miner, so an adversarial worker can delay a run but never change its
  answer (or, with ``fallback='none'``, the task is ``failed``).
"""

from __future__ import annotations

import math
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


@dataclass
class Lease:
    """A worker's claim on its task: live while beats arrive within ``ttl``.

    ``ttl=None`` never expires — the lease of a task whose workers do
    not beat, which only the wall-clock timeout can stop.
    """

    ttl: float | None
    last_beat: float = field(default_factory=time.monotonic)
    heartbeats: int = 0

    @property
    def deadline(self) -> float:
        return math.inf if self.ttl is None else self.last_beat + self.ttl

    def renew(self, now: float | None = None) -> None:
        self.last_beat = time.monotonic() if now is None else now
        self.heartbeats += 1

    def expired(self, now: float | None = None) -> bool:
        return (time.monotonic() if now is None else now) > self.deadline


class Task:
    """One supervised job; a subclass states what its kind does differently.

    Class attributes name the kind's spans and outcomes (telemetry.py
    lists the union vocabulary); the methods are the kind's side of each
    lifecycle step.  ``slot`` is the supervisor slot (``"w0"`` …) running
    the step.
    """

    label: str  # span attribute holding ``index``: "unit" / "shard"
    task_span: str | None  # span held open across all attempts, if any
    attempt_span: str
    worker_span: str  # opened in the child around the worker call
    fallback_span: str
    adopted: str  # outcome: an earlier result was adopted
    corrupt: str  # outcome: that earlier result failed verification
    undecodable: str  # outcome: the worker's result failed ``decode``
    start_error: str  # outcome: ``start`` raised, nothing was spawned

    index: int
    #: Picklable callable the child runs: ``worker(payload, attempt)``,
    #: or ``worker(payload, attempt, beat)`` when ``beat_every`` is set.
    worker: Callable
    beat_every: float | None = None  # child heartbeat period (None = none)
    beat_ttl: float | None = None  # beat silence that forfeits the attempt

    def adopt(self) -> PatternSet | None:
        """An earlier run's (or attempt's) verified result, if one exists."""
        return None

    def start(self, attempt: int, slot: str) -> object:
        """The child payload; a raise burns the attempt before any spawn."""
        raise NotImplementedError

    def spawned(self, pid: int, slot: str) -> None:
        """The worker process is running."""

    def beat(self, info, pid: int, slot: str) -> None:
        """One beat arrived; a raise loses it (the lease is not renewed)."""

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


def child_main(
    worker: Callable,
    payload: object,
    attempt: int,
    conn,
    span_name: str,
    beat_every: float | None,
) -> None:
    """Worker-process entry for every task kind: run, report over the pipe.

    Messages: ``("beat", info)`` any number of times, then exactly one of
    ``("ok", result, spans)`` / ``("error", "Type: message")``.  With
    ``beat_every`` set a daemon thread beats ``("hb", seq)`` — once
    immediately, so the lease is live before any mining — and the worker
    receives ``beat`` to report progress of its own; sends are serialized
    because both threads share the pipe.

    When the payload carries an ``obs_trace`` handoff (a traced parent
    run) the child joins the parent's trace: the worker runs under a
    ``span_name`` span parented to the attempt's, and the collected spans
    ride back in the ``ok`` message.
    """
    lock = threading.Lock()
    stop = threading.Event()

    def send(message) -> None:
        with lock:
            conn.send(message)

    def beat(info) -> None:
        send(("beat", info))

    def heartbeat() -> None:
        seq = 0
        try:
            beat(("hb", seq))
            while not stop.wait(beat_every):
                seq += 1
                beat(("hb", seq))
        except OSError:
            return  # supervisor went away; the worker continues or dies

    args = (payload, attempt)
    if beat_every is not None:
        threading.Thread(target=heartbeat, daemon=True).start()
        args += (beat,)
    handoff = payload.get("obs_trace") if isinstance(payload, dict) else None
    try:
        if handoff:
            obs_trace.begin_in_child(handoff)
            with obs_trace.span(span_name, attempt=attempt):
                result = worker(*args)
            spans = obs_trace.collect_child_spans()
        else:
            result, spans = worker(*args), []
        stop.set()
        send(("ok", result, spans))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        stop.set()
        try:
            send(("error", _describe(exc)))
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
    span: object = None  # the open ``task_span``, once first picked up


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
        task = entry.task
        if task.task_span is None:
            return self._step(entry, slot)
        if entry.span is None:
            entry.span = obs_trace.begin(
                task.task_span, **{task.label: task.index}
            )
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
            status = "checkpoint" if last.outcome == task.adopted else "ok"
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
                with obs_trace.span(
                    task.fallback_span, **{task.label: task.index}
                ):
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
            task.attempt_span,
            **{task.label: task.index}, attempt=record.attempt, slot=slot,
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
            record.outcome, record.pid = task.corrupt, os.getpid()
            record.error = str(exc)
            return None
        if patterns is not None:
            record.outcome, record.pid = task.adopted, os.getpid()
            return patterns
        try:
            payload = task.start(record.attempt, slot)
        except Exception as exc:  # noqa: BLE001 - a retryable attempt
            record.outcome, record.error = task.start_error, _describe(exc)
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
            args=(
                task.worker, payload, record.attempt, send,
                task.worker_span, task.beat_every,
            ),
            daemon=True,
        )
        proc.start()
        send.close()
        record.pid = proc.pid

        lease = Lease(task.beat_ttl)
        deadline = time.monotonic() + (config.unit_timeout or math.inf)
        outcome = error = message = None
        try:
            task.spawned(proc.pid, slot)
            while outcome is None:
                # Sleep until a message or the nearer stop rule; with
                # neither rule armed this is one blocking poll.
                limit = min(deadline, lease.deadline)
                if recv.poll(
                    None if limit == math.inf
                    else max(0.0, limit - time.monotonic())
                ):
                    try:
                        message = recv.recv()
                    except EOFError:
                        outcome = "crash"
                        error = "worker died without a report"
                        break
                    if message[0] != "beat":
                        outcome = message[0]
                        if outcome != "ok":
                            outcome, error = "error", message[1]
                        break
                    try:
                        task.beat(message[1], proc.pid, slot)
                    except Exception:  # noqa: BLE001 - beat lost
                        pass  # a dropped heartbeat does not renew
                    else:
                        lease.renew()
                now = time.monotonic()
                if lease.expired(now):
                    outcome = "lease-expired"
                    error = f"no heartbeat within {lease.ttl:.2f}s"
                elif now >= deadline:
                    outcome = "timeout"
                    error = f"no result within {config.unit_timeout}s"
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
            record.heartbeats = lease.heartbeats

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
                outcome, error = task.undecodable, _describe(exc)
        record.outcome, record.error = outcome, error
        return patterns
