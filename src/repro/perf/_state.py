"""Process-wide acceleration-state token (cycle-free home).

The token is bumped whenever the acceleration layer's on/off switch
flips.  :class:`repro.perf.cache.SupportCache` stamps every verdict
with it, so a verdict computed under one configuration is never served
under another; it lives in this tiny module because ``cache.py`` is
imported while ``repro.perf.__init__`` is still executing.
"""

from __future__ import annotations

_TOKEN = 0


def accel_token() -> int:
    """The current acceleration-state token."""
    return _TOKEN


def bump_token() -> int:
    """Advance the token (configuration changed); returns the new value."""
    global _TOKEN
    _TOKEN += 1
    return _TOKEN
