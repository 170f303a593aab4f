"""The observability kill switch.

One process-wide boolean gates every hook the observability subsystem
plants in the pipeline — spans and metric observations.  It lives in its own tiny module so the hot modules
(:mod:`repro.obs.metrics`, :mod:`repro.obs.trace`) and the package
``__init__`` can all import it without cycles.

Off means *no-op*, not *degraded*: a disabled ``obs.span(...)`` returns a
shared null context manager and a disabled metric helper returns before
touching the registry, so the per-hook cost is one module-global read and
one branch.  ``benchmarks/bench_obs_overhead.py`` holds the subsystem to
that claim (< 3% wall-clock overhead even when *enabled*).

The switch starts from the ``REPRO_NO_OBS`` environment variable and is
flipped by the CLI ``--no-obs`` flag via :func:`set_enabled`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_ENABLED = not os.environ.get("REPRO_NO_OBS")


def enabled() -> bool:
    """True when the observability subsystem is globally active."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Switch observability on or off; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


@contextmanager
def disabled():
    """Run a block with every observability hook a no-op (for testing)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)
