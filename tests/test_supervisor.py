"""The process supervisor, driven through unit tasks.

One fault schedule — a worker that raises, dies, hangs past the timeout
or reports an undecodable result, once and then recovers; a worker that
never recovers — is driven through ``MiningRuntime``, the one process
supervisor.  Every schedule must show the expected attempt history,
degrade when the budget runs out, and end with the exact fault-free
answer.  The returned ``RunTelemetry`` records every attempt and unit
status.
"""

from __future__ import annotations

import io
import multiprocessing
import os

import pytest

from repro.core.partminer import resolve_unit_threshold
from repro.mining.store import dump_patterns
from repro.partition.dbpartition import db_partition
from repro.runtime import (
    MiningRuntime,
    RuntimeConfig,
    UnitMiningError,
)
from repro.runtime.config import backoff_delay

from .conftest import random_database
from .test_runtime_faults import faulty_tasks, faulty_worker, skip_wait

SUPPORT = 3
#: fault -> the outcome its failed attempt is recorded as.
OUTCOMES = {
    "error": "error",
    "crash": "crash",
    "hang": "timeout",
    "garbage": "garbage",
}


def pattern_text(patterns):
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def database():
    return random_database(seed=77, num_graphs=8, n=6, extra_edges=1)


def supervise(database, mode, fail_attempts, *, only=None,
              sleep=skip_wait, fallback=True, **policy):
    """Run two unit tasks under the fault; normalize what happened.

    ``only`` restricts the fault to that task; ``fallback=False`` leaves
    the tasks without a serial fallback.  Returns ``(telemetry,
    answer_text, settle_order)``; raises what the runtime raises.
    Whatever happened, no worker process may outlive the call.
    """
    config = RuntimeConfig(**{"max_workers": 2, **policy})
    order = []
    try:
        units = db_partition(database, 2).units()
        thresholds = [
            resolve_unit_threshold(u, SUPPORT, "exact") for u in units
        ]
        tasks = faulty_tasks(units, thresholds, mode, fail_attempts)
        for task in tasks:
            if only not in (None, task.index):
                task.payload["fail_attempts"] = 0
            if not fallback:
                task.fallback = None
        result = MiningRuntime(config, worker=faulty_worker, sleep=sleep).run(
            tasks, on_unit_complete=lambda index, *_: order.append(index)
        )
    finally:
        assert multiprocessing.active_children() == []
    answer = "".join(pattern_text(p) for p in result.unit_results)
    return result.telemetry, answer, order


@pytest.fixture(scope="module")
def clean(database):
    """The fault-free answer."""
    return supervise(database, "error", 0)[1]


class TestFaultSchedule:
    @pytest.mark.parametrize("fault", sorted(OUTCOMES))
    def test_once_then_recover(self, fault, database, clean):
        """Each fault costs exactly one retry and nothing else."""
        telemetry, answer, _ = supervise(
            database, fault, 1, unit_timeout=1.0, max_retries=2,
        )
        for record in telemetry.units:
            assert record.status == "ok"
            assert [a.outcome for a in record.attempts] == [
                OUTCOMES[fault], "ok",
            ]
            failed, recovered = record.attempts
            assert failed.backoff is not None and recovered.backoff is None
            assert failed.worker in ("w0", "w1")
            if fault != "garbage":
                assert failed.error
        assert answer == clean

    def test_exhausted_budget_degrades_to_the_exact_answer(
        self, database, clean
    ):
        telemetry, answer, _ = supervise(
            database, "crash", 99, max_retries=1
        )
        for record in telemetry.units:
            assert record.status == "degraded"
            assert [a.outcome for a in record.attempts] == [
                "crash", "crash", "fallback-serial",
            ]
            assert record.attempts[-1].pid == os.getpid()
        assert answer == clean

    def test_fallback_none_raises_with_telemetry(self, database):
        """A task without a fallback spends its budget, records the
        missing fallback as ``fallback-error`` and ends ``failed``."""
        with pytest.raises(UnitMiningError) as excinfo:
            supervise(
                database, "crash", 99, max_retries=1, fallback=False,
            )
        err = excinfo.value
        assert err.failed == [0, 1]
        assert err.telemetry.counts() == {"failed": 2}
        for record in err.telemetry.units:
            assert [a.outcome for a in record.attempts] == [
                "crash", "crash", "fallback-error",
            ]
            assert "no serial fallback" in record.attempts[-1].error

    def test_a_backing_off_task_does_not_hold_the_only_slot(
        self, database, clean
    ):
        """One slot, task 0 fails into a backoff: task 1 — ready — runs
        first, and only then does the slot sleep out what is left of
        task 0's delay (through the injectable wait)."""
        slept = []
        telemetry, answer, order = supervise(
            database, "error", 1, only=0,
            sleep=slept.append, max_workers=1, max_retries=1,
        )
        assert order == [1, 0]
        failed = telemetry.unit(0).attempts[0]
        assert failed.backoff == backoff_delay(0, unit=0)
        assert len(slept) <= 1
        assert all(0 < delay <= failed.backoff for delay in slept)
        assert [a.outcome for a in telemetry.unit(0).attempts] == [
            "error", "ok",
        ]
        assert [a.outcome for a in telemetry.unit(1).attempts] == ["ok"]
        assert answer == clean


def test_default_retry_schedule_is_pinned():
    """The fixed schedule replays the delays every earlier run slept
    (``0.05 * 2**n`` less a jitter keyed by unit and attempt)."""
    expected = {
        0: [0.043595454352078344, 0.0693426944114461, 0.15455474215828074],
        1: [0.028581954129356914, 0.062269876676331465, 0.12584342959799183],
        2: [0.026431441916595244, 0.09464078969468706, 0.19148358474679786],
        3: [0.04734476984964078, 0.08549694428583801, 0.19493187931588718],
    }
    for unit, delays in expected.items():
        assert [backoff_delay(n, unit=unit) for n in range(3)] == delays
