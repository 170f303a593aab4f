"""Configuration of the fault-tolerant unit-mining runtime.

One frozen dataclass holds every execution policy knob — worker count,
per-attempt wall-clock timeout, retry budget, exponential backoff shape and
the degradation strategy — so a policy can be passed around, recorded in
telemetry, and compared across runs.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

FALLBACKS = ("serial", "none")


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution policy of :class:`~repro.runtime.supervisor.Supervisor`.

    Parameters
    ----------
    max_workers:
        Worker processes alive at once (``None`` = CPU count, capped by
        the number of units).
    unit_timeout:
        Wall-clock seconds one *attempt* may run before its worker process
        is killed (``None`` = unlimited).
    max_retries:
        Retries after the first attempt; a unit runs at most
        ``max_retries + 1`` times in worker processes.
    backoff_base / backoff_factor / backoff_max:
        The delay slept after the ``n``-th failed attempt is
        ``min(backoff_max, backoff_base * backoff_factor ** n)`` — classic
        capped exponential backoff.
    backoff_jitter / backoff_seed:
        Seeded jitter over the exponential delay.  Without jitter,
        workers that fail *simultaneously* (one machine fault killing a
        whole batch) retry in lockstep — ``backoff_jitter`` spreads each
        delay uniformly over ``[delay * (1 - jitter), delay]``.  The spread is a pure
        function of ``(backoff_seed, unit, attempt)``, so a replayed
        run sleeps the same delays (deterministic chaos tests) while
        different units always de-correlate.  ``0.0`` restores the
        exact fixed schedule.
    fallback:
        What happens once the retry budget is exhausted: ``'serial'`` mines
        the unit in-process with the real miner (the run *degrades* but
        still completes exactly); ``'none'`` marks the unit failed and the
        runtime raises.
    start_method:
        ``multiprocessing`` start method for workers (``None`` = platform
        default).
    kill_grace:
        Seconds to wait for a terminated worker before escalating to
        ``SIGKILL``.
    """

    max_workers: int | None = None
    unit_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    backoff_jitter: float = 0.5
    backoff_seed: int = 0
    fallback: str = "serial"
    start_method: str | None = None
    kill_grace: float = 5.0

    def __post_init__(self) -> None:
        if self.fallback not in FALLBACKS:
            raise ValueError(
                f"fallback must be one of {FALLBACKS}: {self.fallback!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {self.max_workers}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.unit_timeout is not None and self.unit_timeout <= 0:
            raise ValueError(
                f"unit_timeout must be positive: {self.unit_timeout}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1]: {self.backoff_jitter}"
            )

    def backoff_delay(
        self, failed_attempts: int, unit: int | None = None
    ) -> float:
        """Delay slept after the ``failed_attempts``-th failure (0-based).

        ``unit`` keys the jitter: two units sharing an attempt number
        draw different (but replayable) spreads, so a batch of workers
        killed together never retries in lockstep.  ``None`` (and
        ``backoff_jitter=0``) returns the bare exponential delay.
        """
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor**failed_attempts,
        )
        if unit is None or self.backoff_jitter <= 0 or delay <= 0:
            return delay
        rng = random.Random(
            f"{self.backoff_seed}:{unit}:{failed_attempts}"
        )
        return delay * (1.0 - self.backoff_jitter * rng.random())

    def to_dict(self) -> dict:
        """JSON-ready form (embedded in run telemetry)."""
        return asdict(self)
