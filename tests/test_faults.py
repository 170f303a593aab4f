"""Tests for the deterministic fault-injection registry (repro.resilience.faults)."""

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultPlan, InjectedFault, flip_bit, truncate


class TestSiteRegistry:
    def test_known_sites_registered(self):
        sites = faults.registered_sites()
        for expected in (
            "artifact.write",
            "artifact.read",
            "graph.parse",
            "runtime.worker_start",
            "runtime.fallback",
            "serve.request",
            "serve.reload",
            "cli.run",
        ):
            assert expected in sites, f"site {expected} not registered"
        # Every site carries a human-readable description.
        assert all(isinstance(d, str) and d for d in sites.values())

    def test_register_returns_name(self):
        assert faults.register_site("test.site", "a test site") == "test.site"


class TestCorruptions:
    def test_flip_bit_changes_exactly_one_bit(self):
        import random

        data = bytes(range(64))
        mutated = flip_bit(data, random.Random(3))
        assert len(mutated) == len(data)
        diff = [a ^ b for a, b in zip(data, mutated) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1

    def test_flip_bit_on_empty(self):
        import random

        assert flip_bit(b"", random.Random(0)) == b"\xff"

    def test_truncate_shortens(self):
        import random

        data = b"x" * 100
        assert len(truncate(data, random.Random(1))) < 100

    def test_same_seed_same_corruption(self):
        data = b"deterministic chaos" * 10
        outs = set()
        for _ in range(3):
            plan = FaultPlan(seed=42)
            plan.inject("artifact.write", corrupt="flip")
            with plan.active():
                outs.add(faults.mangle("artifact.write", data))
        assert len(outs) == 1
        assert outs.pop() != data


class TestFaultPlan:
    def test_fire_raises_armed_exception(self):
        plan = FaultPlan().inject("a.site", OSError("disk on fire"))
        with plan.active():
            with pytest.raises(OSError, match="disk on fire"):
                faults.fire("a.site")
        assert [f.site for f in plan.fired] == ["a.site"]

    def test_default_exception_is_injected_fault(self):
        plan = FaultPlan().inject("a.site")
        with plan.active(), pytest.raises(InjectedFault):
            faults.fire("a.site")

    def test_exception_class_is_instantiated(self):
        plan = FaultPlan().inject("a.site", ConnectionError)
        with plan.active(), pytest.raises(ConnectionError):
            faults.fire("a.site")

    def test_times_bounds_firings(self):
        plan = FaultPlan().inject("a.site", times=2)
        with plan.active():
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    faults.fire("a.site")
            faults.fire("a.site")  # third call passes: arm exhausted
        assert len(plan.fired) == 2

    def test_unarmed_sites_untouched(self):
        plan = FaultPlan().inject("a.site")
        with plan.active():
            faults.fire("other.site")
            assert faults.mangle("other.site", b"data") == b"data"
        assert plan.fired == []

    def test_noop_without_active_plan(self):
        faults.fire("a.site")
        assert faults.mangle("a.site", b"data") == b"data"

    def test_active_restores_previous_plan(self):
        outer = FaultPlan()
        inner = FaultPlan()
        with outer.active():
            with inner.active():
                assert faults.active_plan() is inner
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_probability_is_seeded(self):
        def firings(seed):
            plan = FaultPlan(seed=seed)
            plan.inject("a.site", times=1000, probability=0.5)
            count = 0
            with plan.active():
                for _ in range(100):
                    try:
                        faults.fire("a.site")
                        count += 0
                    except InjectedFault:
                        count += 1
            return count

        assert firings(7) == firings(7)
        assert 10 < firings(7) < 90

    def test_mangle_context_recorded(self):
        plan = FaultPlan().inject("a.site", corrupt="truncate")
        with plan.active():
            faults.mangle("a.site", b"0123456789", path="x.json")
        assert plan.fired[0].kind == "corrupt"
        assert plan.fired[0].context == {"path": "x.json"}

    def test_custom_corruption_callable(self):
        plan = FaultPlan().inject(
            "a.site", corrupt=lambda data, rng: b"REPLACED"
        )
        with plan.active():
            assert faults.mangle("a.site", b"original") == b"REPLACED"
        assert plan.fired[0].detail == "custom"
