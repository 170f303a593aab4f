"""Configuration of the fault-tolerant unit-mining runtime.

One frozen dataclass holds the execution policy a caller sets — worker
count, per-attempt wall-clock timeout, retry budget and start method —
so a policy can be passed around and compared across runs.  The retry
schedule is fixed: :func:`backoff_delay`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: After the ``n``-th failed attempt (0-based) a unit waits
#: ``min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR ** n)`` seconds,
#: less a seeded jitter of up to ``BACKOFF_JITTER`` of that delay.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 30.0
BACKOFF_JITTER = 0.5


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution policy of :class:`~repro.runtime.engine.MiningRuntime`.

    Parameters
    ----------
    max_workers:
        Worker processes alive at once (``None`` = CPU count, capped by
        the number of units).
    unit_timeout:
        Wall-clock seconds one *attempt* may run before its worker process
        is killed (``None`` = unlimited; otherwise positive and finite).
    max_retries:
        Retries after the first attempt; a unit runs at most
        ``max_retries + 1`` times in worker processes before the serial
        fallback mines it.
    start_method:
        ``multiprocessing`` start method for workers (``None`` = platform
        default).
    """

    max_workers: int | None = None
    unit_timeout: float | None = None
    max_retries: int = 2
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {self.max_workers}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.unit_timeout is not None and not (
            0 < self.unit_timeout < math.inf
        ):
            raise ValueError(
                f"unit_timeout must be positive and finite: "
                f"{self.unit_timeout}"
            )


def backoff_delay(failed_attempts: int, unit: int | None = None) -> float:
    """Delay slept after the ``failed_attempts``-th failure (0-based).

    ``unit`` keys the jitter, which spreads each delay over
    ``[delay * (1 - BACKOFF_JITTER), delay]`` as a pure function of
    ``(unit, failed_attempts)``: a replayed run sleeps the same delays,
    while units failing together (one machine fault killing a batch)
    never retry in lockstep.  ``None`` returns the bare exponential.
    """
    delay = min(BACKOFF_MAX, BACKOFF_BASE * BACKOFF_FACTOR**failed_attempts)
    if unit is None:
        return delay
    # The "0:" prefix is the seed earlier runs used: their delays replay.
    rng = random.Random(f"0:{unit}:{failed_attempts}")
    return delay * (1.0 - BACKOFF_JITTER * rng.random())
