"""Checkpoint persistence properties and interrupted-run resume.

Two layers:

* Hypothesis round-trips — any :class:`PatternSet` survives
  persist -> load -> persist byte-identically (the store format is a
  function of the set, not of the writing process);
* crash realism — a parallel run is *killed* (``os._exit`` from a child
  process) after unit *i*; relaunching with the same run directory resumes
  from the checkpoints, mines only the remaining units, and produces the
  same answer as a never-interrupted run.
"""

from __future__ import annotations

import io
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partminer import PartMiner, resolve_unit_threshold
from repro.mining.base import Pattern, PatternSet
from repro.mining.gaston import GastonMiner
from repro.mining.store import dump_patterns, load_patterns
from repro.partition.dbpartition import db_partition
from repro.runtime import (
    CheckpointMismatch,
    CheckpointStore,
    RuntimeConfig,
    run_unit_mining,
)

from .conftest import random_database
from .test_properties import connected_graphs


# ----------------------------------------------------------------------
# Hypothesis: persist -> load -> persist is the identity.
# ----------------------------------------------------------------------
@st.composite
def pattern_sets(draw, max_patterns=6):
    count = draw(st.integers(0, max_patterns))
    patterns = PatternSet()
    for _ in range(count):
        graph = draw(connected_graphs(max_vertices=5))
        tids = draw(st.sets(st.integers(0, 30), min_size=1, max_size=8))
        patterns.add(Pattern.from_graph(graph, tids))
    return patterns


class TestRoundTripProperties:
    @settings(max_examples=40, deadline=None)
    @given(pattern_sets())
    def test_persist_load_persist_is_identity(self, patterns):
        first = io.StringIO()
        dump_patterns(patterns, first, meta={"unit": 3})
        loaded, meta = load_patterns(io.StringIO(first.getvalue()))
        assert meta == {"unit": 3, "backend": "memory"}
        assert loaded.keys() == patterns.keys()
        for pattern in loaded:
            assert pattern.tids == patterns.get(pattern.key).tids
            assert pattern.support == patterns.get(pattern.key).support
        second = io.StringIO()
        dump_patterns(loaded, second, meta={"unit": 3})
        assert second.getvalue() == first.getvalue()

    @settings(max_examples=15, deadline=None)
    @given(pattern_sets(max_patterns=4))
    def test_store_round_trip_on_disk(self, tmp_path_factory, patterns):
        store = CheckpointStore(
            tmp_path_factory.mktemp("cp") / "run"
        )
        store.open({"units": 1, "thresholds": [1]})
        store.save(0, patterns, meta={"threshold": 1})
        loaded = store.load(0)
        assert loaded.keys() == patterns.keys()
        for pattern in loaded:
            assert pattern.tids == patterns.get(pattern.key).tids


class TestCheckpointStore:
    def test_missing_unit_raises_keyerror(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.open({"units": 2, "thresholds": [1, 1]})
        assert not store.has(0)
        assert store.completed_units() == set()
        with pytest.raises(KeyError):
            store.load(0)

    def test_manifest_mismatch_refuses_resume(self, tmp_path):
        """A run directory cannot be reused for a different run."""
        store = CheckpointStore(tmp_path / "run")
        assert store.open({"units": 2, "thresholds": [2, 2]}) is False
        assert store.open({"units": 2, "thresholds": [2, 2]}) is True
        with pytest.raises(CheckpointMismatch):
            store.open({"units": 4, "thresholds": [2, 2, 2, 2]})
        with pytest.raises(CheckpointMismatch):
            store.open({"units": 2, "thresholds": [3, 3]})

    def test_unit_file_pins_its_index(self, tmp_path):
        store = CheckpointStore(tmp_path / "run")
        store.open({"units": 2, "thresholds": [1, 1]})
        store.save(1, PatternSet())
        os.replace(store.unit_path(1), store.unit_path(0))
        with pytest.raises(CheckpointMismatch):
            store.load(0)


# ----------------------------------------------------------------------
# Interrupted-run resume
# ----------------------------------------------------------------------
K = 4
KILL_AFTER = 2
SEED = 909
SUPPORT = 3


def _workload():
    db = random_database(seed=SEED, num_graphs=10, n=6, extra_edges=1)
    tree = db_partition(db, K)
    units = tree.units()
    thresholds = [
        resolve_unit_threshold(u, SUPPORT, "exact") for u in units
    ]
    return units, thresholds


def _run_and_die(run_dir: str) -> None:
    """Child-process target: start the run, die after KILL_AFTER units."""
    units, thresholds = _workload()
    completed = []

    def die_after(index, patterns, record):
        completed.append(index)
        if len(completed) >= KILL_AFTER:
            os._exit(17)  # simulated machine death: no cleanup, no flush

    store = CheckpointStore(run_dir)
    store.open({"units": len(units), "thresholds": thresholds})
    run_unit_mining(
        units,
        thresholds,
        config=RuntimeConfig(max_workers=1),  # deterministic unit order
        checkpoint=store,
        on_unit_complete=die_after,
    )
    os._exit(0)  # not reached


class TestInterruptedResume:
    def test_killed_run_resumes_from_checkpoints(self, tmp_path):
        run_dir = str(tmp_path / "run")
        units, thresholds = _workload()

        # Uninterrupted reference (no checkpointing involved).
        reference = run_unit_mining(units, thresholds)

        # Launch, get killed mid-flight after KILL_AFTER units.
        proc = multiprocessing.Process(target=_run_and_die, args=(run_dir,))
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == 17

        store = CheckpointStore(run_dir)
        assert store.completed_units() == set(range(KILL_AFTER))

        # Relaunch with the same run directory.
        resumed = run_unit_mining(
            units,
            thresholds,
            config=RuntimeConfig(max_workers=1),
            checkpoint=store,
        )

        # Finished units were reused, only the rest were mined.
        statuses = [r.status for r in resumed.telemetry.units]
        assert statuses == ["checkpoint"] * KILL_AFTER + ["ok"] * (
            K - KILL_AFTER
        )
        mined_attempts = [
            a
            for r in resumed.telemetry.units
            for a in r.attempts
            if a.outcome == "ok"
        ]
        assert len(mined_attempts) == K - KILL_AFTER

        # And the answer matches the uninterrupted run exactly.
        for got, want in zip(
            resumed.unit_results, reference.unit_results
        ):
            assert got.keys() == want.keys()
            for p in got:
                assert p.tids == want.get(p.key).tids

    def test_partminer_resume_round_trip(self, tmp_path):
        """PartMiner with a run_dir: second run is checkpoints-only and
        pattern-identical."""
        db = random_database(seed=910, num_graphs=8, n=6, extra_edges=1)
        run_dir = tmp_path / "pm"
        miner = PartMiner(
            k=2,
            unit_support="exact",
            runtime=RuntimeConfig(max_workers=2),
            run_dir=run_dir,
        )
        first = miner.mine(db, 3)
        second = miner.mine(db, 3)
        assert first.telemetry.counts() == {"ok": 2}
        assert second.telemetry.counts() == {"checkpoint": 2}
        assert second.patterns.keys() == first.patterns.keys()
        serial = PartMiner(k=2, unit_support="exact").mine(db, 3)
        assert second.patterns.keys() == serial.patterns.keys()

    def test_checkpoint_files_match_fresh_mining(self, tmp_path):
        """What lands on disk is exactly what the unit miner produces."""
        units, thresholds = _workload()
        store = CheckpointStore(tmp_path / "run")
        store.open({"units": len(units), "thresholds": thresholds})
        run_unit_mining(units, thresholds, checkpoint=store)
        for i, (unit, threshold) in enumerate(zip(units, thresholds)):
            direct = GastonMiner().mine(unit.database, threshold)
            assert store.load(i).keys() == direct.keys()
