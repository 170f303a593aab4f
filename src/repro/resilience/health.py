"""Service health primitives: circuit breakers and deadlines.

These are the in-process guards the serving layer (and anything else
with dependencies) composes:

* :class:`CircuitBreaker` — classic three-state breaker.  The caller
  asks :meth:`~CircuitBreaker.allow` before the guarded work and records
  its outcome.  ``closed`` admits every call and counts consecutive
  failures; at ``failure_threshold`` it opens and refuses for
  ``reset_timeout`` seconds (the caller fails fast, e.g. with
  :class:`~repro.resilience.errors.CircuitOpen`); then one **half-open**
  probe is admitted — success closes the breaker, failure re-opens it
  for another full timeout.
* :class:`Deadline` — a monotonic-clock budget created at the request
  edge and *propagated* into long loops, which call :meth:`Deadline.check`
  between units of work and get a typed
  :class:`~repro.resilience.errors.DeadlineExceeded` instead of running
  arbitrarily long.

Both take an injectable clock so tests drive the state machines
deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .errors import DeadlineExceeded

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-dependency failure isolation (see module docs).  Thread-safe."""

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probing = False  # a half-open probe is in flight
        self.stats = {"failures": 0, "opens": 0, "rejected": 0}

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self.clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = HALF_OPEN
            self._probing = False

    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open admits one probe.)"""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            self.stats["rejected"] += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._state = CLOSED
            self._probing = False
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self.stats["failures"] += 1
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._trip()
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self.clock()
        self._probing = False
        self.stats["opens"] += 1

    def snapshot(self) -> dict:
        """JSON-ready state for health endpoints."""
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                **self.stats,
            }

    #: Numeric encoding of breaker states for gauge export.
    STATE_CODES = {"closed": 0, "half-open": 1, "open": 2}

    def export_gauges(self) -> None:
        """Publish this breaker's state into the obs metrics registry."""
        from ..obs import metrics as obs_metrics

        snap = self.snapshot()
        registry = obs_metrics.registry()
        registry.gauge(
            "repro_circuit_state",
            "Circuit breaker state (0=closed, 1=half-open, 2=open)",
            labels=("circuit",),
        ).labels(circuit=self.name).set(
            self.STATE_CODES.get(snap["state"], -1)
        )
        registry.gauge(
            "repro_circuit_consecutive_failures",
            "Consecutive failures recorded by a circuit breaker",
            labels=("circuit",),
        ).labels(circuit=self.name).set(snap["consecutive_failures"])


# ----------------------------------------------------------------------
class Deadline:
    """A wall-clock budget carried from the request edge into the work."""

    __slots__ = ("expires_at", "clock")

    def __init__(
        self,
        expires_at: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.expires_at = expires_at
        self.clock = clock

    @classmethod
    def after(
        cls,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        return cls(clock() + seconds, clock)

    def remaining(self) -> float:
        return self.expires_at - self.clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} deadline exceeded "
                f"(over budget by {-self.remaining():.3f}s)"
            )
