"""Sharded coordinator: wall-clock scaling and worker residency.

Two figures of merit for the coordinator (DESIGN.md §15):

* **Wall-clock vs shard count** — the same mine run single-process
  (``GastonMiner`` over the whole database) and through the
  ``Coordinator`` at increasing ``--shards``.  Every sharded dump must
  be byte-identical to the serial baseline: the sweep prices the
  supervision + global-recount machinery, it never trades exactness.
  Note the sharded runs do strictly *more* mining work than serial —
  the double-pigeonhole relaxation drops each shard's threshold to
  ``ceil(t/N)``, inflating the candidate superset as N grows — so on a
  workload small enough to bench, the curve prices overhead (spawn,
  spill, recount); it is not a speedup claim.
* **Peak worker RSS** — workers open the coordinator's SQLite spill
  read-only behind a small decoded-graph cache (``mem_budget``), so
  their residency is bounded by the cache, not the shard.  Workers are
  child processes, so ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` is the
  high-water of the fattest worker reaped so far (the counter is
  monotone across the sweep — later points can only raise it).

Persists ``benchmarks/results/BENCH_shard.json`` plus the committed
repo-root copy (``BENCH_shard.json``) the CI shard-chaos-smoke job is
paired with (``--quick`` shrinks the workload and the shard sweep).
"""

import io
import resource
import time
from pathlib import Path

from repro.coord import CoordConfig, Coordinator
from repro.datagen.synthetic import generate_dataset
from repro.mining.gaston import GastonMiner
from repro.mining.store import dump_patterns

from .conftest import finish, run_once
from .figures import Experiment

REPO_ROOT = Path(__file__).resolve().parent.parent

DATASET = "D160T8N10L12I4"
DATASET_QUICK = "D60T8N10L12I4"
SHARD_SWEEP = (2, 4, 8)
SHARD_SWEEP_QUICK = (2, 4)
MEM_BUDGET = 4
MAX_SIZE = 6


def pattern_text(patterns):
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


def worker_peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def test_shard_scaling(benchmark, quick, tmp_path):
    spec = DATASET_QUICK if quick else DATASET
    sweep_shards = SHARD_SWEEP_QUICK if quick else SHARD_SWEEP

    def sweep():
        exp = Experiment(
            "BENCH_shard",
            f"Sharded coordinator scaling ({spec}, cache {MEM_BUDGET})",
            "shards (0=serial)",
            "value",
        )
        wall = exp.new_series("wall-clock (s)")
        worker_rss = exp.new_series("peak worker RSS (MB)")

        db = generate_dataset(spec, seed=31)
        minsup = max(2, len(db) // 10)

        t0 = time.perf_counter()
        base = GastonMiner(max_size=MAX_SIZE).mine(db, minsup)
        serial_elapsed = time.perf_counter() - t0
        base_text = pattern_text(base)
        wall.add(0, serial_elapsed)

        points = {}
        for shards in sweep_shards:
            config = CoordConfig(
                shards=shards,
                chunk_size=0,
                mem_budget=MEM_BUDGET,
            )
            run_dir = tmp_path / f"run{shards}"
            coordinator = Coordinator(config, run_dir=run_dir)
            t0 = time.perf_counter()
            result = coordinator.mine(db, minsup, max_size=MAX_SIZE)
            elapsed = time.perf_counter() - t0
            assert pattern_text(result.patterns) == base_text
            counters = result.telemetry.coord["counters"]
            assert counters["degraded"] == 0, counters
            wall.add(shards, elapsed)
            worker_rss.add(shards, worker_peak_rss_kb() / 1024)
            points[shards] = {
                "elapsed": round(elapsed, 4),
                "speedup": round(serial_elapsed / elapsed, 3),
                "edge_spread": result.telemetry.coord["plan"][
                    "edge_spread"
                ],
                "worker_peak_rss_kb": worker_peak_rss_kb(),
            }

        exp.notes["workload"] = {
            "dataset": spec,
            "minsup": minsup,
            "max_size": MAX_SIZE,
            "patterns": len(base),
            "mem_budget": MEM_BUDGET,
            "serial_elapsed": round(serial_elapsed, 4),
        }
        exp.notes["shards"] = points
        exp.notes["quick"] = quick
        return exp

    exp = run_once(benchmark, sweep)
    finish(exp)
    exp.save(REPO_ROOT)  # the committed CI reference copy

    # Exactness was asserted point by point; the scaling gate is soft
    # (a 4-shard run should not be drastically slower than serial once
    # process spawn + spill amortise over a non-trivial workload).
    assert exp.notes["shards"], exp.notes
