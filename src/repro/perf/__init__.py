"""Support-counting acceleration layer (reference matcher, kernel, cache).

``CheckFrequency`` asks one question — which graphs contain this
pattern? — and there are two ways to answer it:

* the **reference matcher** (:mod:`repro.graph.isomorphism`'s embedding
  enumerator and ``subgraph_exists_reference``): dict-based backtracking,
  the oracle of every differential test;
* the **production kernel** (:mod:`repro.perf.batchscan`): patterns
  compiled to flat plans (:mod:`repro.perf.fastmatch`), graphs to CSR
  arrays (:mod:`repro.perf.flatgraph`), an integer-space admit prefilter
  and an iterative descent over a whole candidate list per call —
  ``flat_count_batch`` / ``flat_contains`` to count, ``flat_embeddings``
  to enumerate.

:mod:`repro.perf.cache` adds a canonical-key -> per-graph containment
memo for owners that re-test the same graph instances.

The kernel is behaviour-preserving: the differential test-suite pins it
against the reference matcher.  One switch chooses between the two
(``set_enabled(False)``, the CLI ``--no-accel`` flag, or the
``REPRO_NO_ACCEL`` environment variable — the escape hatch and the
baseline the benchmarks compare against).

Work counters live in :mod:`repro.perf.counters`, the one import point
for product and benchmark code alike.
"""

from __future__ import annotations

import gc
import os
from contextlib import contextmanager

from ._state import accel_token, bump_token as _bump_token
from .batchscan import (
    BatchScan,
    ScanArena,
    flat_contains,
    flat_count_batch,
    flat_embeddings,
    local_arena,
)
from .cache import SupportCache
from .counters import (
    COUNTERS,
    PerfCounters,
    delta_since,
    snapshot,
)
from .fastmatch import (
    ADMIT,
    REJECT_DEGREE,
    REJECT_QUICK,
    FlatPlan,
    flat_admits,
    get_flat_plan,
)
from .flatgraph import (
    INTERNER,
    FlatDB,
    FlatGraph,
    get_flat_db,
    get_flat_graph,
)

_ENABLED = not os.environ.get("REPRO_NO_ACCEL")


def enabled() -> bool:
    """True when the acceleration layer is globally active."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Switch the layer on or off; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    if previous != _ENABLED:
        _bump_token()
    return previous


@contextmanager
def disabled():
    """Run a block on the unaccelerated reference paths (for testing)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def collector_paused():
    """Pause automatic cyclic collection for a block, then restore the
    caller's state: mining leaves no reference cycles, so a collection
    during it would only rescan live objects."""
    paused = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


__all__ = [
    "BatchScan",
    "COUNTERS",
    "FlatDB",
    "FlatGraph",
    "ADMIT",
    "FlatPlan",
    "ScanArena",
    "INTERNER",
    "PerfCounters",
    "SupportCache",
    "accel_token",
    "collector_paused",
    "delta_since",
    "disabled",
    "enabled",
    "flat_contains",
    "flat_count_batch",
    "flat_embeddings",
    "local_arena",
    "REJECT_DEGREE",
    "REJECT_QUICK",
    "flat_admits",
    "get_flat_db",
    "get_flat_graph",
    "get_flat_plan",
    "set_enabled",
    "snapshot",
]
