"""Benchmark-facing view of the acceleration-layer work counters.

Benchmarks report *isomorphism tests avoided*, cache hit rates and
admit-prefilter rejections through these counters.  The implementation lives
in :mod:`repro.perf.counters` (so the hot modules can import it without
the benchmark harness); this module is the stable import point for
benchmark and tooling code::

    from repro.bench.counters import snapshot, delta_since

    before = snapshot()
    run_workload()
    work = delta_since(before)
    print(work.vf2_calls, "backtracking searches entered")
"""

from ..perf.counters import (
    COUNTERS,
    PerfCounters,
    delta_since,
    global_counters,
    reset_counters,
    snapshot,
)

__all__ = [
    "COUNTERS",
    "PerfCounters",
    "delta_since",
    "global_counters",
    "reset_counters",
    "snapshot",
]
