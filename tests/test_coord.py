"""Sharded mining coordinator: placement, leases, recovery, identity.

The headline test is the chaos gate the ISSUE demands: shards bigger
than the per-worker graph-cache budget, random SIGKILLs mid-shard, one
corrupted shard-result artifact — and the final pattern artifact must
be byte-identical to the single-process run, with the telemetry
recording the lease expiries and reassignments that happened on the
way.
"""

import io
import json
import multiprocessing
import os
import signal
import warnings

import pytest

from repro.coord import CoordConfig, Coordinator, ShardPlan
from repro.coord.lease import ShardRecord
from repro.core.partminer import PartMiner
from repro.mining.gaston import GastonMiner
from repro.mining.store import dump_patterns
from repro.resilience.faults import FaultPlan
from repro.runtime import Lease, RuntimeConfig
from repro.runtime.checkpoint import CheckpointMismatch
from repro.runtime.telemetry import RunTelemetry

from .conftest import random_database

SUPPORT = 3

#: Fast supervision settings for tests: tiny backoffs, quick heartbeats.
FAST = RuntimeConfig(
    max_workers=2, backoff_base=0.001, backoff_max=0.01, kill_grace=2.0
)


def pattern_text(patterns):
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_covers_every_graph_exactly_once(self):
        db = random_database(seed=11, num_graphs=13, n=5)
        plan = ShardPlan.build(db, 4)
        seen = [gid for gids in plan.assignments for gid in gids]
        assert sorted(seen) == sorted(db.gids())
        assert len(seen) == len(set(seen))

    def test_round_robin_balances_counts(self):
        db = random_database(seed=12, num_graphs=12, n=5)
        plan = ShardPlan.build(db, 4)
        assert [g for g, _ in plan.sizes] == [3, 3, 3, 3]

    def test_density_ranking_spreads_dense_graphs(self):
        # 4 dense graphs + 4 sparse ones: the density deal must place
        # exactly one dense graph on each of 4 shards — a contiguous
        # split would pile them onto one straggler.
        from repro.graph.labeled_graph import LabeledGraph

        def clique(n):
            g = LabeledGraph()
            for i in range(n):
                g.add_vertex(0)
            for i in range(n):
                for j in range(i + 1, n):
                    g.add_edge(i, j, 0)
            return g

        def path(n):
            g = LabeledGraph()
            for i in range(n):
                g.add_vertex(0)
            for i in range(n - 1):
                g.add_edge(i, i + 1, 0)
            return g

        from repro.graph.database import GraphDatabase

        db = GraphDatabase(
            [(gid, clique(6)) for gid in range(4)]
            + [(gid, path(6)) for gid in range(4, 8)]
        )
        plan = ShardPlan.build(db, 4)
        for gids in plan.assignments:
            dense = [gid for gid in gids if gid < 4]
            assert len(dense) == 1

    def test_deterministic(self):
        db = random_database(seed=13, num_graphs=10, n=5)
        assert ShardPlan.build(db, 3) == ShardPlan.build(db, 3)

    def test_chunks_and_thresholds(self):
        db = random_database(seed=14, num_graphs=10, n=5)
        plan = ShardPlan.build(db, 2)  # 5 gids per shard
        chunks = plan.chunks(0, 2)
        assert [len(c) for c in chunks] == [2, 2, 1]
        assert plan.chunks(0, 0) == [plan.shard_gids(0)]
        # ceil(7/2) = 4 per shard, then ceil(4/3) = 2 per chunk.
        assert plan.shard_threshold(7) == 4
        assert plan.chunk_threshold(7, 0, 2) == 2
        assert plan.chunk_threshold(1, 0, 1) == 1  # floors at 1

    def test_dict_round_trip(self):
        db = random_database(seed=15, num_graphs=9, n=5)
        plan = ShardPlan.build(db, 4)
        assert ShardPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_balance_rejected(self):
        # Density placement is the only one since edge-LPT placement went.
        db = random_database(seed=15, num_graphs=4, n=4)
        with pytest.raises(TypeError):
            ShardPlan.build(db, 2, balance="edges")
        with pytest.raises(TypeError):
            CoordConfig(balance="density")

    def test_more_shards_than_graphs(self):
        db = random_database(seed=16, num_graphs=2, n=4)
        plan = ShardPlan.build(db, 5)
        assert sum(len(g) for g in plan.assignments) == 2
        assert plan.chunks(4, 3) == []  # empty shard -> no chunks


# ----------------------------------------------------------------------
# Lease
# ----------------------------------------------------------------------
class TestLease:
    def test_expiry_is_ttl_after_last_beat(self):
        lease = Lease(ttl=1.0)
        granted = lease.last_beat
        assert not lease.expired(granted + 0.5)
        assert lease.expired(granted + 1.5)
        lease.renew(granted + 0.9)
        assert not lease.expired(granted + 1.5)
        assert lease.heartbeats == 1
        # A task whose workers never beat holds a lease with no TTL.
        assert not Lease(ttl=None).expired(granted + 1e9)


# ----------------------------------------------------------------------
# Coordinator behaviour
# ----------------------------------------------------------------------
def test_sharded_run_matches_serial_byte_for_byte(tmp_path):
    db = random_database(seed=21, num_graphs=12, n=6, extra_edges=2)
    baseline = pattern_text(GastonMiner().mine(db, SUPPORT))
    config = CoordConfig(
        shards=4, chunk_size=2, heartbeat_interval=0.05,
        runtime=FAST,
    )
    with pytest.warns(RuntimeWarning, match="chunk-local support 1"):
        result = Coordinator(config, tmp_path / "run").mine(db, SUPPORT)
    assert pattern_text(result.patterns) == baseline
    assert all(
        record["status"] == "committed"
        for record in result.telemetry.coord["shards"]
    )


def test_chaos_gate_kills_and_corruption_still_byte_identical(tmp_path):
    """The acceptance scenario from the ISSUE, end to end.

    Shards of 6 graphs mined under a 2-graph per-worker cache budget
    (out-of-core), chaos SIGKILLing workers mid-shard and flipping a
    bit in one committed shard-result artifact — the final patterns are
    byte-identical to the single-process run and telemetry shows the
    recovery story.
    """
    db = random_database(seed=22, num_graphs=24, n=6, extra_edges=2)
    baseline = pattern_text(GastonMiner().mine(db, SUPPORT))

    kills = []

    def on_event(kind, **ctx):
        # SIGKILL the first two workers the moment they checkpoint
        # their first chunk — mid-shard, progress already durable.
        if kind == "unit" and len(kills) < 2 and ctx["pid"] not in kills:
            kills.append(ctx["pid"])
            try:
                os.kill(ctx["pid"], signal.SIGKILL)
            except ProcessLookupError:
                pass

    plan = FaultPlan(seed=0)
    plan.inject("coord.shard_result", corrupt="flip", times=1)

    config = CoordConfig(
        shards=4,
        chunk_size=2,
        heartbeat_interval=0.03,
        mem_budget=2,  # < 6 graphs per shard: the out-of-core regime
        runtime=RuntimeConfig(
            max_workers=2, backoff_base=0.001, backoff_max=0.01,
            kill_grace=2.0, max_retries=4,
        ),
    )
    run_dir = tmp_path / "run"
    with plan.active(), pytest.warns(
        RuntimeWarning, match="chunk-local support 1"
    ):
        result = Coordinator(
            config, run_dir, on_event=on_event
        ).mine(db, SUPPORT)

    assert pattern_text(result.patterns) == baseline
    assert len(kills) == 2
    assert any(f.site == "coord.shard_result" for f in plan.fired)
    assert (run_dir / "spill.db").exists()  # workers streamed SQLite

    coord = result.telemetry.coord
    counters = coord["counters"]
    assert counters["lease_expiries"] >= 1
    assert counters["reassignments"] >= 1
    assert counters["degraded"] == 0
    outcomes = [
        attempt["outcome"]
        for shard in coord["shards"]
        for attempt in shard["attempts"]
    ]
    assert "result-corrupt" in outcomes
    # A killed shard's successor resumed from chunk checkpoints.
    assert sum(
        attempt["resumed_units"]
        for shard in coord["shards"]
        for attempt in shard["attempts"]
    ) >= 1

    # The telemetry artifact round-trips with the coord digest intact.
    loaded = RunTelemetry.load(run_dir / "telemetry.json")
    assert loaded.coord == coord
    assert "4 units" in loaded.format_summary()


def _mine_and_die(run_dir, seed):
    """Child process: run the coordinator, SIGKILL ourselves mid-run."""
    db = random_database(seed=seed, num_graphs=16, n=6, extra_edges=2)
    progressed = [0]

    def on_event(kind, **ctx):
        if kind == "unit":
            progressed[0] += 1
            if progressed[0] >= 3:
                os._exit(17)

    config = CoordConfig(
        shards=4, chunk_size=2, heartbeat_interval=0.05,
        runtime=FAST,
    )
    Coordinator(config, run_dir, on_event=on_event).mine(db, SUPPORT)
    os._exit(0)  # pragma: no cover - the kill should land first


def test_killed_coordinator_resumes_from_sqlite_checkpoints(tmp_path):
    """Kill the whole coordinator process after unit i; resume; identical."""
    seed = 23
    run_dir = tmp_path / "run"
    proc = multiprocessing.Process(
        target=_mine_and_die, args=(run_dir, seed)
    )
    proc.start()
    proc.join(120)
    assert proc.exitcode == 17, "the staged mid-run death did not land"

    db = random_database(seed=seed, num_graphs=16, n=6, extra_edges=2)
    baseline = pattern_text(GastonMiner().mine(db, SUPPORT))
    config = CoordConfig(
        shards=4, chunk_size=2, heartbeat_interval=0.05,
        runtime=FAST,
    )
    with pytest.warns(RuntimeWarning, match="chunk-local support 1"):
        result = Coordinator(config, run_dir).mine(db, SUPPORT)
    assert pattern_text(result.patterns) == baseline
    # The first run's durable progress was adopted, not re-mined:
    # either whole committed shards or checkpointed chunks.
    adopted = sum(
        attempt["resumed_units"]
        for shard in result.telemetry.coord["shards"]
        for attempt in shard["attempts"]
    )
    resumed_commits = sum(
        1
        for shard in result.telemetry.coord["shards"]
        for attempt in shard["attempts"]
        if attempt["outcome"] == "resumed-commit"
    )
    assert adopted + resumed_commits >= 1


def test_sqlite_backed_database_is_referenced_not_respilled(tmp_path):
    """A database already in a SQLite backend is streamed in place."""
    from repro.storage import open_backend

    db = random_database(seed=27, num_graphs=12, n=5, extra_edges=1)
    baseline = pattern_text(GastonMiner().mine(db, SUPPORT))
    with open_backend("sqlite", tmp_path / "graphs.db") as backend:
        backend.import_database(db)
        stored = backend.database()
        config = CoordConfig(
            shards=3, heartbeat_interval=0.05,
            mem_budget=2, runtime=FAST,
        )
        run_dir = tmp_path / "run"
        with pytest.warns(RuntimeWarning, match="chunk-local support 1"):
            result = Coordinator(config, run_dir).mine(stored, SUPPORT)
    assert pattern_text(result.patterns) == baseline
    assert not (run_dir / "spill.db").exists()  # referenced in place


def test_run_dir_pins_the_plan(tmp_path):
    db = random_database(seed=24, num_graphs=8, n=5)
    config = CoordConfig(shards=2, heartbeat_interval=0.05, runtime=FAST)
    Coordinator(config, tmp_path / "run").mine(db, SUPPORT)
    other = CoordConfig(shards=4, heartbeat_interval=0.05, runtime=FAST)
    with pytest.raises(CheckpointMismatch), pytest.warns(
        RuntimeWarning, match="chunk-local support 1"
    ):
        Coordinator(other, tmp_path / "run").mine(db, SUPPORT)
    # The edge cap is identity too: checkpoints and committed shard
    # results mined uncapped must not be adopted by a capped resume.
    with pytest.raises(CheckpointMismatch):
        Coordinator(config, tmp_path / "run").mine(db, SUPPORT, max_size=3)


def test_run_dir_written_under_edge_balance_is_refused(tmp_path):
    """A density plan (no ``balance`` key) resumes; an edge one is refused."""
    db = random_database(seed=24, num_graphs=8, n=5)
    config = CoordConfig(shards=2, heartbeat_interval=0.05, runtime=FAST)
    run_dir = tmp_path / "run"
    first = Coordinator(config, run_dir).mine(db, SUPPORT)
    manifest = run_dir / "coord.json"
    written = json.loads(manifest.read_text())
    assert "balance" not in written["plan"]
    resumed = Coordinator(config, run_dir).mine(db, SUPPORT)
    assert pattern_text(resumed.patterns) == pattern_text(first.patterns)

    written["plan"]["balance"] = "edges"
    manifest.write_text(json.dumps(written))
    with pytest.raises(CheckpointMismatch, match="plan differs"):
        Coordinator(config, run_dir).mine(db, SUPPORT)


def test_serial_fallback_degrades_exactly(tmp_path):
    """Every worker attempt lost -> in-process fallback, same patterns."""
    db = random_database(seed=25, num_graphs=8, n=5, extra_edges=1)
    baseline = pattern_text(GastonMiner().mine(db, SUPPORT))

    def kill_on_lease(kind, **ctx):
        if kind == "lease":
            try:
                os.kill(ctx["pid"], signal.SIGKILL)
            except ProcessLookupError:
                pass

    config = CoordConfig(
        shards=2, heartbeat_interval=0.05,
        runtime=RuntimeConfig(
            max_workers=1, backoff_base=0.001, backoff_max=0.01,
            kill_grace=2.0, max_retries=1,
        ),
    )
    result = Coordinator(
        config, tmp_path / "run", on_event=kill_on_lease
    ).mine(db, SUPPORT)
    assert pattern_text(result.patterns) == baseline
    coord = result.telemetry.coord
    assert coord["counters"]["degraded"] == 2
    assert all(
        shard["status"] == "degraded" for shard in coord["shards"]
    )


def test_partminer_shards_delegates_to_coordinator(tmp_path):
    db = random_database(seed=26, num_graphs=10, n=5, extra_edges=1)
    serial = PartMiner(k=2).mine(db, SUPPORT)
    sharded = PartMiner(
        shards=2,
        run_dir=tmp_path / "run",
        coord=CoordConfig(shards=2, heartbeat_interval=0.05, runtime=FAST),
    ).mine(db, SUPPORT)
    assert pattern_text(sharded.patterns) == pattern_text(serial.patterns)
    assert sharded.telemetry is not None
    assert sharded.telemetry.coord["counters"]["retries"] == 0
    assert len(sharded.unit_results) == 2


def test_shard_record_round_trip():
    record = ShardRecord(shard=3, graphs=5, edges=40)
    record.lease_expiries = 2
    assert ShardRecord.from_dict(record.to_dict()) == record


def test_chunk_support_collapse_warns(tmp_path):
    """Chunk-local threshold 1 with an uncapped size is almost always a
    shard/support misconfiguration (support-1 enumeration is unbounded
    in pattern size) — the coordinator must say so up front."""
    db = random_database(seed=27, num_graphs=12, n=5, extra_edges=1)
    config = CoordConfig(
        shards=4, chunk_size=2, heartbeat_interval=0.05, runtime=FAST
    )
    with pytest.warns(RuntimeWarning, match="chunk-local support 1"):
        Coordinator(config, tmp_path / "warn").mine(db, SUPPORT)
    # Capping the size makes the same configuration legitimate.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        Coordinator(config, tmp_path / "capped").mine(
            db, SUPPORT, max_size=4
        )
