"""The process supervisor, tested once over both task kinds.

One fault schedule — a worker that raises, dies, hangs past the timeout
or reports an undecodable result, once and then recovers; a worker that
never recovers — is driven through a *unit* task (``MiningRuntime``) and
a *shard* task (``Coordinator``).  Both sit on
:mod:`repro.runtime.supervisor`, so both must show the same attempt
histories, the same degradation, and the exact fault-free answer.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time

import pytest

from repro.coord import CoordConfig, Coordinator
from repro.coord.worker import mine_shard
from repro.core.partminer import resolve_unit_threshold
from repro.mining.gaston import GastonMiner
from repro.partition.dbpartition import db_partition
from repro.runtime import (
    MiningRuntime,
    RunTelemetry,
    RuntimeConfig,
    UnitMiningError,
)

from .conftest import random_database
from .test_coord import pattern_text
from .test_runtime_faults import faulty_tasks, faulty_worker

KINDS = ("unit", "shard")
SUPPORT = 3
#: fault -> the outcome it is recorded as, per task kind.
OUTCOMES = {
    "error": {"unit": "error", "shard": "error"},
    "crash": {"unit": "crash", "shard": "crash"},
    "hang": {"unit": "timeout", "shard": "timeout"},
    "garbage": {"unit": "garbage", "shard": "result-corrupt"},
}


def faulty_shard_worker(mode, fail_attempts, only, payload, attempt, beat):
    """Shard-side twin of ``faulty_worker`` (bound with ``partial``)."""
    if attempt < fail_attempts and only in (None, payload["shard"]):
        if mode == "crash":
            os._exit(13)
        if mode == "hang":
            time.sleep(60)  # the heartbeat thread keeps the lease alive
        if mode == "garbage":
            with open(payload["result_path"], "w") as handle:
                handle.write("definitely not a committed pattern store\n")
            return {}
        raise ValueError("injected worker failure")
    return mine_shard(payload, attempt, beat)


@pytest.fixture(scope="module")
def database():
    return random_database(seed=77, num_graphs=8, n=6, extra_edges=1)


def supervise(kind, database, tmp_path, mode, fail_attempts, *,
              only=None, sleep=time.sleep, **policy):
    """Run two tasks of ``kind`` under the fault; normalize what happened.

    ``only`` restricts the fault to that task.  Returns ``(telemetry,
    answer_text, settle_order)``; raises what the entry point raises.
    Whatever happened, no worker process may outlive the call.
    """
    config = RuntimeConfig(
        **{"backoff_base": 0.001, "backoff_max": 0.01, "kill_grace": 2.0,
           "max_workers": 2, **policy}
    )
    order = []
    try:
        if kind == "unit":
            units = db_partition(database, 2).units()
            thresholds = [
                resolve_unit_threshold(u, SUPPORT, "exact") for u in units
            ]
            tasks = faulty_tasks(units, thresholds, mode, fail_attempts)
            for task in tasks:
                if only not in (None, task.index):
                    task.payload["fail_attempts"] = 0
            result = MiningRuntime(
                config, worker=faulty_worker, sleep=sleep
            ).run(
                tasks,
                on_unit_complete=lambda index, *_: order.append(index),
            )
            answer = "".join(pattern_text(p) for p in result.unit_results)
        else:
            def on_event(event, **ctx):
                if event == "committed":
                    order.append(ctx["shard"])

            result = Coordinator(
                CoordConfig(
                    shards=2, heartbeat_interval=0.05, runtime=config
                ),
                tmp_path / "run",
                worker=functools.partial(
                    faulty_shard_worker, mode, fail_attempts, only
                ),
                on_event=on_event,
                sleep=sleep,
            ).mine(database, SUPPORT)
            answer = pattern_text(result.patterns)
    finally:
        assert multiprocessing.active_children() == []
    return result.telemetry, answer, order


@pytest.fixture(scope="module")
def clean(database, tmp_path_factory):
    """The fault-free answer of each kind."""
    return {
        kind: supervise(
            kind, database, tmp_path_factory.mktemp(kind), "error", 0
        )[1]
        for kind in KINDS
    }


def test_shard_answer_is_the_serial_answer(database, clean):
    assert clean["shard"] == pattern_text(
        GastonMiner().mine(database, SUPPORT)
    )


@pytest.mark.parametrize("kind", KINDS)
class TestFaultSchedule:
    @pytest.mark.parametrize("fault", sorted(OUTCOMES))
    def test_once_then_recover(self, kind, fault, database, clean, tmp_path):
        """Each fault costs exactly one retry and nothing else."""
        telemetry, answer, _ = supervise(
            kind, database, tmp_path, fault, 1,
            unit_timeout=1.0, max_retries=2,
        )
        for record in telemetry.units:
            assert record.status == "ok"
            assert [a.outcome for a in record.attempts] == [
                OUTCOMES[fault][kind], "ok",
            ]
            failed, recovered = record.attempts
            assert failed.backoff is not None and recovered.backoff is None
            assert failed.worker in ("w0", "w1")
            if fault != "garbage":
                assert failed.error
        assert answer == clean[kind]

    def test_exhausted_budget_degrades_to_the_exact_answer(
        self, kind, database, clean, tmp_path
    ):
        telemetry, answer, _ = supervise(
            kind, database, tmp_path, "crash", 99, max_retries=1
        )
        for record in telemetry.units:
            assert record.status == "degraded"
            assert [a.outcome for a in record.attempts] == [
                "crash", "crash", "fallback-serial",
            ]
            assert record.attempts[-1].pid == os.getpid()
        assert answer == clean[kind]

    def test_fallback_none_raises_with_telemetry(
        self, kind, database, tmp_path
    ):
        with pytest.raises(UnitMiningError) as excinfo:
            supervise(
                kind, database, tmp_path, "crash", 99,
                max_retries=1, fallback="none",
            )
        err = excinfo.value
        assert err.failed == [0, 1]
        assert err.telemetry.counts() == {"failed": 2}
        assert all(
            [a.outcome for a in record.attempts] == ["crash", "crash"]
            for record in err.telemetry.units
        )

    def test_a_backing_off_task_does_not_hold_the_only_slot(
        self, kind, database, clean, tmp_path
    ):
        """One slot, task 0 fails into a long backoff: task 1 — ready —
        runs first, and only then does the slot sleep out task 0's
        delay (through the injectable wait, so the test does not)."""
        slept = []
        started = time.monotonic()
        telemetry, answer, order = supervise(
            kind, database, tmp_path, "error", 1, only=0,
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
        assert answer == clean[kind]


def test_telemetry_loads_attempts_without_the_lease_fields():
    """Files written before ``worker`` / ``heartbeats`` / ``resumed_units``
    / ``mined_units`` existed carry none of them and must still load."""
    from repro.runtime import AttemptRecord, UnitRecord

    telemetry = RunTelemetry(
        units=[
            UnitRecord(
                unit=0, status="ok", wall_time=0.5, patterns=3,
                attempts=[
                    AttemptRecord(
                        attempt=0, outcome="crash", wall_time=0.1,
                        pid=11, error="worker exit code 13", backoff=0.05,
                    ),
                    AttemptRecord(
                        attempt=1, outcome="ok", wall_time=0.4, pid=12
                    ),
                ],
            )
        ]
    )
    document = telemetry.to_dict()
    for attempt in document["units"][0]["attempts"]:
        for key in ("worker", "heartbeats", "resumed_units", "mined_units"):
            del attempt[key]
    assert document["version"] == 1
    assert RunTelemetry.from_dict(document) == telemetry
