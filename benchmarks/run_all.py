"""Run the whole evaluation and regenerate EXPERIMENTS.md in one command.

Equivalent to::

    pytest benchmarks/ --benchmark-only
    python benchmarks/make_experiments_md.py

but with per-figure progress and a final summary.  Expect ~10-20 minutes
on commodity hardware (fig14a deliberately includes one point in the
pattern-explosion regime).
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BENCHES = [
    "bench_datagen.py",
    "bench_fig13_partitioning.py",
    "bench_fig14_minsup.py",
    "bench_fig15_units.py",
    "bench_fig16_scalability.py",
    "bench_fig17_updates.py",
    "bench_support_counting.py",
    "bench_ablation_support.py",
    "bench_ablation_joins.py",
    "bench_ablation_miners.py",
    "bench_ablation_drift.py",
    "bench_obs_overhead.py",
]


def main() -> int:
    overall_start = time.perf_counter()
    failures = []
    for bench in BENCHES:
        print(f"\n=== {bench} ===", flush=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(ROOT / "benchmarks" / bench),
                "--benchmark-only",
                "-q",
                "-s",
            ],
            cwd=ROOT,
        )
        elapsed = time.perf_counter() - start
        status = "ok" if proc.returncode == 0 else f"FAILED ({proc.returncode})"
        print(f"--- {bench}: {status} in {elapsed:.0f}s", flush=True)
        if proc.returncode != 0:
            failures.append(bench)

    print("\n=== regenerating EXPERIMENTS.md ===", flush=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "make_experiments_md.py")],
        cwd=ROOT,
    )
    if proc.returncode != 0:
        failures.append("make_experiments_md.py")

    print("\n=== rendering SVG charts ===", flush=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "make_plots.py")],
        cwd=ROOT,
    )
    if proc.returncode != 0:
        failures.append("make_plots.py")

    total = time.perf_counter() - overall_start
    print(f"\ntotal: {total:.0f}s; failures: {failures or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
