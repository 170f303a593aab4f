"""Tests for health primitives (repro.resilience.health)."""

import pytest

from repro.resilience.errors import DeadlineExceeded
from repro.resilience.health import CircuitBreaker, Deadline


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=10.0):
        return CircuitBreaker(
            "dep",
            failure_threshold=threshold,
            reset_timeout=reset,
            clock=clock,
        )

    def test_starts_closed_and_allows(self):
        breaker = self.make(FakeClock())
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_opens_at_failure_threshold(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.stats["opens"] == 1
        assert breaker.stats["rejected"] == 1

    def test_success_resets_failure_streak(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent caller: still rejected

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.allow()

    def test_probe_failure_retrips_full_timeout(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()

    def test_snapshot_shape(self):
        breaker = self.make(FakeClock())
        snap = breaker.snapshot()
        assert snap["name"] == "dep"
        assert snap["state"] == "closed"
        assert set(snap) == {
            "name", "state", "consecutive_failures",
            "failures", "opens", "rejected",
        }

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)


class TestDeadline:
    def test_not_expired_within_budget(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        assert not deadline.expired
        assert deadline.remaining() == pytest.approx(5.0)
        deadline.check()  # no raise

    def test_check_raises_after_expiry(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        clock.advance(5.1)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="match query"):
            deadline.check("match query")

