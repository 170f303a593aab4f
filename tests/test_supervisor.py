"""The process supervisor, driven through unit tasks.

One fault schedule — a worker that raises, dies, hangs past the timeout
or reports an undecodable result, once and then recovers; a worker that
never recovers — is driven through ``MiningRuntime``, which sits on
:mod:`repro.runtime.supervisor`.  Every schedule must show the expected
attempt history, degrade when the budget runs out, and end with the
exact fault-free answer.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import time

import pytest

from repro.core.partminer import resolve_unit_threshold
from repro.mining.store import dump_patterns
from repro.partition.dbpartition import db_partition
from repro.runtime import (
    MiningRuntime,
    RunTelemetry,
    RuntimeConfig,
    UnitMiningError,
)

from .conftest import random_database
from .test_runtime_faults import faulty_tasks, faulty_worker

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
              sleep=time.sleep, **policy):
    """Run two unit tasks under the fault; normalize what happened.

    ``only`` restricts the fault to that task.  Returns ``(telemetry,
    answer_text, settle_order)``; raises what the runtime raises.
    Whatever happened, no worker process may outlive the call.
    """
    config = RuntimeConfig(
        **{"backoff_base": 0.001, "backoff_max": 0.01, "kill_grace": 2.0,
           "max_workers": 2, **policy}
    )
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
        with pytest.raises(UnitMiningError) as excinfo:
            supervise(
                database, "crash", 99, max_retries=1, fallback="none",
            )
        err = excinfo.value
        assert err.failed == [0, 1]
        assert err.telemetry.counts() == {"failed": 2}
        assert all(
            [a.outcome for a in record.attempts] == ["crash", "crash"]
            for record in err.telemetry.units
        )

    def test_a_backing_off_task_does_not_hold_the_only_slot(
        self, database, clean
    ):
        """One slot, task 0 fails into a long backoff: task 1 — ready —
        runs first, and only then does the slot sleep out task 0's
        delay (through the injectable wait, so the test does not)."""
        slept = []
        started = time.monotonic()
        telemetry, answer, order = supervise(
            database, "error", 1, only=0,
            sleep=slept.append, max_workers=1, max_retries=1,
            backoff_base=30.0, backoff_max=30.0, backoff_jitter=0.0,
        )
        assert order == [1, 0]
        assert time.monotonic() - started < 25.0
        assert slept == [pytest.approx(30.0, abs=5.0)]
        assert [a.outcome for a in telemetry.unit(0).attempts] == [
            "error", "ok",
        ]
        assert [a.outcome for a in telemetry.unit(1).attempts] == ["ok"]
        assert answer == clean


def test_telemetry_with_the_retired_shard_fields_still_loads():
    """Telemetry written while sharded mining existed carries
    ``heartbeats`` / ``resumed_units`` / ``mined_units`` on every attempt
    and a top-level ``coord`` digest; such a file still loads, and
    everything else it recorded survives."""
    document = {
        "version": 1,
        "config": {"max_workers": 2},
        "total_wall_time": 0.5,
        "serving": {},
        "trace": {},
        "coord": {"counters": {"retries": 1, "lease_expiries": 0}},
        "units": [
            {
                "unit": 0, "status": "ok", "wall_time": 0.5, "patterns": 3,
                "attempts": [
                    {"attempt": 0, "outcome": "crash", "wall_time": 0.1,
                     "pid": 11, "error": "worker exit code 13",
                     "backoff": 0.05, "worker": "w0", "heartbeats": 2,
                     "resumed_units": 0, "mined_units": 1},
                    {"attempt": 1, "outcome": "ok", "wall_time": 0.4,
                     "pid": 12, "error": None, "backoff": None,
                     "worker": "w1", "heartbeats": 5,
                     "resumed_units": 1, "mined_units": 1},
                ],
            }
        ],
    }
    telemetry = RunTelemetry.from_dict(document)
    assert telemetry.config == {"max_workers": 2}
    record = telemetry.unit(0)
    assert (record.status, record.patterns) == ("ok", 3)
    assert [(a.outcome, a.pid, a.worker) for a in record.attempts] == [
        ("crash", 11, "w0"), ("ok", 12, "w1"),
    ]
    assert record.attempts[0].error == "worker exit code 13"
    reloaded = telemetry.to_dict()
    assert "coord" not in reloaded
    assert "heartbeats" not in reloaded["units"][0]["attempts"][0]
    assert RunTelemetry.from_dict(reloaded) == telemetry
