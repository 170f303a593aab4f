"""Tests for the chaos suite's fault-injection kit (tests/faults.py)."""

import random

import pytest

from repro.resilience import integrity

from .faults import SITES, FaultPlan, InjectedFault, flip_bit, target, truncate


class TestCorruptions:
    def test_flip_bit_changes_exactly_one_bit(self):
        data = bytes(range(64))
        mutated = flip_bit(data, random.Random(3))
        assert len(mutated) == len(data)
        diff = [a ^ b for a, b in zip(data, mutated) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1

    def test_flip_bit_on_empty(self):
        assert flip_bit(b"", random.Random(0)) == b"\xff"

    def test_truncate_shortens(self):
        data = b"x" * 100
        assert len(truncate(data, random.Random(1))) < 100

    def test_same_seed_same_corruption(self):
        data = b"deterministic chaos" * 10
        outs = set()
        for _ in range(3):
            plan = FaultPlan(seed=42).inject("a.site", corrupt="flip")
            outs.add(plan.mangle("a.site", data))
        assert len(outs) == 1
        assert outs.pop() != data


class TestFaultPlan:
    def test_fire_raises_armed_exception(self):
        plan = FaultPlan().inject("a.site", OSError("disk on fire"))
        with pytest.raises(OSError, match="disk on fire"):
            plan.fire("a.site")
        assert [f.site for f in plan.fired] == ["a.site"]

    def test_default_exception_is_injected_fault(self):
        plan = FaultPlan().inject("a.site")
        with pytest.raises(InjectedFault):
            plan.fire("a.site")

    def test_exception_class_is_instantiated(self):
        plan = FaultPlan().inject("a.site", ConnectionError)
        with pytest.raises(ConnectionError):
            plan.fire("a.site")

    def test_times_bounds_firings(self):
        plan = FaultPlan().inject("a.site", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("a.site")
        plan.fire("a.site")  # third call passes: arm exhausted
        assert len(plan.fired) == 2

    def test_unarmed_sites_untouched(self):
        plan = FaultPlan().inject("a.site")
        plan.fire("other.site")
        assert plan.mangle("other.site", b"data") == b"data"
        assert plan.fired == []

    def test_noop_while_inactive(self, tmp_path):
        plan = FaultPlan().inject("artifact.write", times=2)
        integrity.atomic_write_text(tmp_path / "a", "x")
        assert plan.fired == []
        with plan.active(), pytest.raises(InjectedFault):
            integrity.atomic_write_text(tmp_path / "b", "x")
        assert [f.context for f in plan.fired] == [
            {"path": str(tmp_path / "b")}
        ]

    def test_active_restores_previous_plan(self):
        def boundaries():
            return {site: getattr(*target(site)) for site in SITES}

        original = boundaries()
        with FaultPlan().active():
            outer = boundaries()
            assert all(outer[s] is not original[s] for s in SITES)
            with FaultPlan().active():
                assert all(boundaries()[s] is not outer[s] for s in SITES)
            assert boundaries() == outer
        assert boundaries() == original

    def test_mangle_context_recorded(self):
        plan = FaultPlan().inject("a.site", corrupt="truncate")
        plan.mangle("a.site", b"0123456789", path="x.json")
        assert plan.fired[0].kind == "corrupt"
        assert plan.fired[0].context == {"path": "x.json"}

    def test_custom_corruption_callable(self):
        plan = FaultPlan().inject(
            "a.site", corrupt=lambda data, rng: b"REPLACED"
        )
        assert plan.mangle("a.site", b"original") == b"REPLACED"
        assert plan.fired[0].detail == "custom"
