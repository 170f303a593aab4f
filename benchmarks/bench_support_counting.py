"""Support-counting acceleration: the two-mode differential benchmark.

A fixed seeded workload — one PartMiner session, incremental update
batches, match-style re-count passes, then a block of pure
whole-database recount passes (``count_support`` per pattern) — runs twice over the same database, once
per matcher:

* **baseline** — layer off (:func:`repro.perf.disabled`): reference
  recursive matcher with the histogram quick-reject only;
* **kernel** — the production path: flat-array (CSR) graph compilation,
  the integer-space admit prefilter and the batched candidate-scan
  kernel (:mod:`repro.perf.batchscan`) fusing admit + search over whole
  candidate lists in one frame, with arena-reused matcher state and
  minsup early exits.

Both modes must mine identical pattern sets at every checkpoint — that
is the differential gate.  Two figures of merit:

* backtracking searches entered (``vf2_calls``), which the kernel must
  cut at least in half on this workload;
* recount throughput (patterns/sec over the pure recount passes), where
  the kernel must clear **8x** the baseline (4x under ``--quick``, which
  shrinks the workload and leaves more room for timer noise — the CI
  job additionally compares the quick ratio against the committed
  full-run ratio).

Persists ``benchmarks/results/BENCH_support.json`` with per-mode
series, isomorphism-test counts, the reduction factor, the cache hit
rate and the recount speedup — plus a copy at the repo root
(``BENCH_support.json``), which is the committed reference the CI
regression gate compares against.
"""

import time
from contextlib import nullcontext
from pathlib import Path

from repro import perf
from repro.core.incremental import IncrementalPartMiner
from repro.datagen.synthetic import generate_dataset
from repro.graph.isomorphism import count_support
from repro.updates.generator import UpdateGenerator

from .conftest import finish, run_once
from .figures import Experiment

DATASET = "D80T10N12L20I4"
MINSUP = 0.1

#: Repo root — home of the committed BENCH_support.json reference copy.
REPO_ROOT = Path(__file__).resolve().parent.parent

MODES = ("baseline", "kernel")


def _mode_context(mode):
    return perf.disabled() if mode == "baseline" else nullcontext()


def _recount(patterns, database):
    """One whole-database recount pass: every pattern's support from
    scratch, one flat compilation and scan arena for the pass."""
    flat = perf.get_flat_db(database) if perf.enabled() else None
    arena = perf.ScanArena()
    for pattern in patterns:
        count_support(
            pattern.graph, database, key=pattern.key, flat=flat, arena=arena
        )


def _workload(db, mode, update_batches, match_passes, recount_passes):
    """One full session in ``mode``; returns (checkpoints, delta, digest)."""
    before = perf.snapshot()
    start = time.perf_counter()
    with _mode_context(mode):
        cache = perf.SupportCache()
        miner = IncrementalPartMiner(k=2, max_size=5)
        result = miner.initial_mine(db, MINSUP)
        checkpoints = [result.patterns]
        generator = UpdateGenerator(
            num_vertex_labels=12, num_edge_labels=3, seed=5
        )
        for _ in range(update_batches):
            updates = generator.generate(
                miner.database, miner.ufreq, fraction_graphs=0.3
            )
            checkpoints.append(miner.apply_updates(updates).patterns)
        for _ in range(match_passes):
            for pattern in checkpoints[-1]:
                count_support(
                    pattern.graph, miner.database, cache=cache,
                    key=pattern.key,
                )
        digest = {
            "elapsed": time.perf_counter() - start,
            "patterns": len(checkpoints[-1]),
            "cache": cache.stats(),
        }
        # Counter accounting stops here: the recount block below is a
        # pure *throughput* measure — folding its searches into the
        # reduction factor would conflate the two figures of merit.
        delta = perf.delta_since(before)
        # Pure recount throughput: CheckFrequency from scratch over the
        # final pattern set, no support cache — this is the number the
        # kernel is gated on.  One untimed warm-up pass first, so
        # one-time compilation (flat plans, admit + full-scan memos)
        # lands outside the timed window in every mode and the
        # quick/full ratios stay comparable.
        final = checkpoints[-1]
        _recount(final, miner.database)
        t0 = time.perf_counter()
        for _ in range(recount_passes):
            _recount(final, miner.database)
        recount_elapsed = time.perf_counter() - t0
        digest["recount_rate"] = (
            len(final) * recount_passes / recount_elapsed
        )
    return checkpoints, delta, digest


def test_support_counting_acceleration(benchmark, quick):
    update_batches = 1 if quick else 2
    # Two passes in both sizes: the cache belongs to the match passes
    # alone (no miner owns one), so the second pass is what can hit.
    match_passes = 2
    recount_passes = 2 if quick else 4
    batch_gate = 4.0 if quick else 8.0
    # The shorter quick workload has one update batch fewer to spread
    # the session's searches over, so the search-reduction bar drops.
    reduction_gate = 1.3 if quick else 2.0

    def sweep():
        db = generate_dataset(DATASET, seed=7)

        runs = {}
        for mode in MODES:
            runs[mode] = _workload(
                db, mode, update_batches, match_passes, recount_passes
            )

        # Behaviour preservation: every mode's every checkpoint matches
        # the baseline's — same keys, same supports, same TID lists.
        base_patterns = runs["baseline"][0]
        for mode in MODES[1:]:
            for got, want in zip(runs[mode][0], base_patterns):
                assert got.keys() == want.keys(), mode
                for p in got:
                    assert p.support == want.get(p.key).support, mode
                    assert p.tids == want.get(p.key).tids, mode

        exp = Experiment(
            "BENCH_support",
            f"Support-counting acceleration ({DATASET}, minsup={MINSUP})",
            "mode (0=baseline, 1=kernel)",
            "value",
        )
        vf2 = exp.new_series("VF2 searches entered")
        rate = exp.new_series("patterns/sec")
        recount = exp.new_series("recount patterns/sec")
        for x, mode in enumerate(MODES):
            _, delta, digest = runs[mode]
            vf2.add(x, delta.vf2_calls)
            rate.add(x, digest["patterns"] / digest["elapsed"])
            recount.add(x, digest["recount_rate"])

        base_delta, base = runs["baseline"][1:]
        batch_delta, batch = runs["kernel"][1:]
        reduction = base_delta.vf2_calls / max(1, batch_delta.vf2_calls)
        exp.notes["workload"] = {
            "dataset": DATASET,
            "minsup": MINSUP,
            "update_batches": update_batches,
            "match_passes": match_passes,
            "recount_passes": recount_passes,
            "quick": quick,
        }
        exp.notes["baseline"] = {
            "vf2_calls": base_delta.vf2_calls,
            "isomorphism_tests": base_delta.vf2_calls
            + base_delta.quick_rejects,
            "elapsed": round(base["elapsed"], 4),
        }
        # The kernel run, under its historical key (EXPERIMENTS.md
        # tooling and the CI gates read it).
        exp.notes["accelerated"] = {
            "vf2_calls": batch_delta.vf2_calls,
            "flat_searches": batch_delta.flat_searches,
            "fingerprint_rejects": batch_delta.fingerprint_rejects,
            "quick_rejects": batch_delta.quick_rejects,
            "elapsed": round(batch["elapsed"], 4),
            "cache": batch["cache"],
        }
        exp.notes["vf2_reduction_factor"] = round(reduction, 3)
        exp.notes["cache_hit_rate"] = batch["cache"]["hit_rate"]
        exp.notes["recount"] = {
            mode: round(runs[mode][2]["recount_rate"], 1) for mode in MODES
        }
        exp.notes["recount"]["batch_speedup"] = round(
            batch["recount_rate"] / base["recount_rate"], 3
        )
        return exp

    exp = run_once(benchmark, sweep)
    finish(exp)
    exp.save(REPO_ROOT)  # the committed CI reference copy

    baseline_vf2, kernel_vf2 = exp.series[0].ys()
    # The CI gates: the kernel must never *add* backtracking searches,
    # must at least halve them on this fixed workload, and must clear
    # its recount-throughput bar.
    assert kernel_vf2 <= baseline_vf2
    assert exp.notes["vf2_reduction_factor"] >= reduction_gate
    assert exp.notes["cache_hit_rate"] > 0.0
    assert exp.notes["recount"]["batch_speedup"] >= batch_gate, (
        f"batch recount speedup {exp.notes['recount']['batch_speedup']}x "
        f"below the {batch_gate}x gate"
    )
