"""Support-counting acceleration layer (match plans, fingerprints, cache).

Three cooperating mechanisms make ``CheckFrequency`` cheap:

* :mod:`repro.perf.matchplan` — per-pattern compiled matching state and an
  iterative, allocation-light existence matcher;
* :mod:`repro.perf.fingerprint` — per-graph containment-monotone
  invariants that reject most non-supporting graphs without a search;
* :mod:`repro.perf.cache` — a canonical-key -> per-graph containment memo
  shared across partition-tree levels and update batches.

All fast paths are behaviour-preserving: the differential test-suite pins
them against the reference matcher.  The layer can be switched off
globally (``set_enabled(False)``, the CLI ``--no-accel`` flag, or the
``REPRO_NO_ACCEL`` environment variable), which routes every existence
check through the original recursive matcher — the escape hatch and the
baseline the benchmarks compare against.

Work counters live in :mod:`repro.perf.counters` (re-exported for
benchmark code as :mod:`repro.bench.counters`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ._state import accel_token, bump_token as _bump_token
from .batchscan import (
    BatchScan,
    ScanArena,
    flat_count_batch,
    flat_embeddings,
    local_arena,
)
from .cache import SupportCache
from .counters import (
    COUNTERS,
    PerfCounters,
    delta_since,
    global_counters,
    reset_counters,
    snapshot,
)
from .fingerprint import GraphFingerprint, PatternProfile, get_fingerprint
from .fastmatch import (
    ADMIT,
    REJECT_DEGREE,
    REJECT_QUICK,
    FlatPlan,
    flat_admits,
    flat_exists,
    get_flat_plan,
)
from .flatgraph import (
    INTERNER,
    FlatDB,
    FlatGraph,
    FlatSegment,
    attach_segment,
    get_flat_db,
    live_segments,
)
from .matchplan import (
    MatchPlan,
    accel_subgraph_exists,
    get_match_plan,
    plan_exists,
)

_ENABLED = not os.environ.get("REPRO_NO_ACCEL")
_FLAT_ENABLED = not os.environ.get("REPRO_NO_FLAT")
_BATCH_ENABLED = not os.environ.get("REPRO_NO_BATCH")

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


def flat_enabled() -> bool:
    """True when the flat-array kernels are active (implies enabled())."""
    return _ENABLED and _FLAT_ENABLED


def set_flat_enabled(flag: bool) -> bool:
    """Switch the flat-array kernels on or off; returns the previous state."""
    global _FLAT_ENABLED
    previous = _FLAT_ENABLED
    _FLAT_ENABLED = bool(flag)
    if previous != _FLAT_ENABLED:
        _bump_token()
    return previous


def batch_enabled() -> bool:
    """True when the batched scan kernel is active (implies flat_enabled())."""
    return _ENABLED and _FLAT_ENABLED and _BATCH_ENABLED


def set_batch_enabled(flag: bool) -> bool:
    """Switch the batched scan kernel on or off; returns the previous state."""
    global _BATCH_ENABLED
    previous = _BATCH_ENABLED
    _BATCH_ENABLED = bool(flag)
    if previous != _BATCH_ENABLED:
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
def flat_disabled():
    """Run a block with match plans but no flat kernels (for testing)."""
    previous = set_flat_enabled(False)
    try:
        yield
    finally:
        set_flat_enabled(previous)


@contextmanager
def batch_disabled():
    """Run a block with flat kernels but per-graph dispatch (for testing)."""
    previous = set_batch_enabled(False)
    try:
        yield
    finally:
        set_batch_enabled(previous)


__all__ = [
    "BatchScan",
    "COUNTERS",
    "FlatDB",
    "FlatGraph",
    "ADMIT",
    "FlatPlan",
    "ScanArena",
    "FlatSegment",
    "GraphFingerprint",
    "INTERNER",
    "MatchPlan",
    "PatternProfile",
    "PerfCounters",
    "SupportCache",
    "accel_subgraph_exists",
    "accel_token",
    "attach_segment",
    "batch_disabled",
    "batch_enabled",
    "delta_since",
    "disabled",
    "enabled",
    "flat_count_batch",
    "flat_disabled",
    "flat_embeddings",
    "flat_enabled",
    "local_arena",
    "REJECT_DEGREE",
    "REJECT_QUICK",
    "flat_admits",
    "flat_exists",
    "get_fingerprint",
    "get_flat_db",
    "get_flat_plan",
    "get_match_plan",
    "global_counters",
    "live_segments",
    "plan_exists",
    "reset_counters",
    "set_batch_enabled",
    "set_enabled",
    "set_flat_enabled",
    "snapshot",
]
