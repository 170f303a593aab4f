"""Tests for the metrics registry (repro.obs.metrics).

Covers series semantics (counter monotonicity, gauge latest-wins,
histogram cumulative buckets), family identity and conflict detection,
the two export shapes (JSON snapshot, Prometheus text exposition),
concurrent increments, and the registry-backed perf counters.
"""

from __future__ import annotations

import json
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)

# One sample line of exposition format v0.0.4:  name{l="v",...} value
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"(-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
)


# ----------------------------------------------------------------------
# Series semantics
# ----------------------------------------------------------------------
class TestSeries:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_up_and_down(self):
        reg = MetricsRegistry()
        g = reg.gauge("t_gauge")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("t_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert [b["count"] for b in snap["buckets"]] == [1, 3, 4]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------
class TestFamilies:
    def test_rerequest_returns_same_series(self):
        reg = MetricsRegistry()
        assert reg.counter("t_total") is reg.counter("t_total")

    def test_labeled_family_dispenses_per_vector(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_total", labels=("kind",))
        a = fam.labels(kind="a")
        a.inc()
        assert fam.labels(kind="a") is a
        assert fam.labels(kind="b") is not a
        assert fam.labels(kind="b").value == 0

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_total", labels=("kind",))
        with pytest.raises(ValueError):
            fam.labels(other="x")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("t_total")
        with pytest.raises(ValueError):
            reg.gauge("t_total")

    def test_label_set_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("t_total", labels=("kind",))
        with pytest.raises(ValueError):
            reg.counter("t_total", labels=("other",))

    def test_invalid_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("2bad")
        with pytest.raises(ValueError):
            reg.counter("no spaces")

    def test_invalid_label_name_raises_at_first_registration(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("t_total", labels=("bad label",))
        # The rejected family was not registered under the valid name.
        assert reg.families() == []

    def test_live_family_lookup_does_no_validation(self, monkeypatch):
        """The hook helpers re-request their family on every increment."""
        reg = MetricsRegistry()
        reg.counter("t_total", labels=("kind",)).labels(kind="a").inc()
        reg.gauge("t_entries").set(1)
        calls = []
        monkeypatch.setattr(obs_metrics, "_validate_name", calls.append)
        reg.counter("t_total", labels=("kind",)).labels(kind="a").inc()
        reg.gauge("t_entries").set(2)
        assert calls == []
        # A conflicting re-request still raises, and a new family is
        # still validated.
        with pytest.raises(ValueError):
            reg.gauge("t_total", labels=("kind",))
        reg.counter("t_fresh_total", labels=("kind",))
        assert calls == ["t_fresh_total", "kind"]

    def test_unlabeled_access_on_labeled_family_raises(self):
        reg = MetricsRegistry()
        fam = reg.counter("t_total", labels=("kind",))
        with pytest.raises(ValueError):
            fam.unlabeled


# ----------------------------------------------------------------------
# Export shapes
# ----------------------------------------------------------------------
class TestExport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("t_total", "things done", labels=("kind",)).labels(
            kind="a"
        ).inc(3)
        reg.gauge("t_gauge", "current level").set(1.5)
        h = reg.histogram("t_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_snapshot_round_trips_through_json(self):
        reg = self._populated()
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["t_total"]["series"][0] == {
            "labels": {"kind": "a"},
            "value": 3,
        }
        assert snap["t_gauge"]["series"][0]["value"] == 1.5
        hist = snap["t_seconds"]["series"][0]["value"]
        assert hist["count"] == 2
        assert [b["count"] for b in hist["buckets"]] == [1, 2]

    def test_prometheus_lines_all_parse(self):
        page = self._populated().render_prometheus()
        assert page.endswith("\n")
        for line in page.strip().splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            assert SAMPLE_RE.match(line), line

    def test_prometheus_histogram_shape(self):
        page = self._populated().render_prometheus()
        assert 't_seconds_bucket{le="0.1"} 1' in page
        assert 't_seconds_bucket{le="1"} 2' in page
        assert 't_seconds_bucket{le="+Inf"} 2' in page
        assert "t_seconds_count 2" in page
        assert "# TYPE t_seconds histogram" in page

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("t_total", labels=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        page = reg.render_prometheus()
        assert '{path="a\\"b\\\\c\\nd"}' in page

    def test_integral_floats_render_without_point(self):
        reg = MetricsRegistry()
        reg.counter("t_total").inc()
        assert "t_total 1\n" in reg.render_prometheus()

    def test_reset_zeroes_every_series(self):
        reg = self._populated()
        reg.reset()
        snap = reg.snapshot()
        assert snap["t_total"]["series"][0]["value"] == 0
        assert snap["t_seconds"]["series"][0]["value"]["count"] == 0

    @settings(max_examples=50, deadline=None)
    @given(
        increments=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=30,
        )
    )
    def test_snapshot_matches_ledger(self, increments):
        """Property: snapshot equals an independently kept ledger, and
        survives a JSON round trip exactly."""
        reg = MetricsRegistry()
        fam = reg.counter("t_total", labels=("kind",))
        ledger: dict[str, int] = {}
        for kind, amount in increments:
            fam.labels(kind=kind).inc(amount)
            ledger[kind] = ledger.get(kind, 0) + amount
        snap = json.loads(json.dumps(reg.snapshot()))
        got = {
            s["labels"]["kind"]: s["value"]
            for s in snap["t_total"]["series"]
        }
        assert got == ledger


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def test_concurrent_increments_lose_nothing():
    reg = MetricsRegistry()
    fam = reg.counter("t_total", labels=("kind",))
    hist = reg.histogram("t_seconds")
    threads = 8
    per_thread = 2000

    def worker(kind):
        series = fam.labels(kind=kind)
        for _ in range(per_thread):
            series.inc()
            hist.observe(0.01)

    pool = [
        threading.Thread(target=worker, args=(f"k{i % 3}",))
        for i in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    total = sum(s.value for _, s in fam.series())
    assert total == threads * per_thread
    assert hist.count == threads * per_thread


# ----------------------------------------------------------------------
# Hook helpers (the serving layer's; nothing on the mining path pushes)
# ----------------------------------------------------------------------
class TestHooks:
    def test_observe_query_lands_in_global_registry(self):
        obs_metrics.observe_query("test_kind_xyz", 0.2, searches=3,
                                  lru_hit=False)
        snap = obs_metrics.registry().snapshot()
        (latency,) = [
            s for s in snap["repro_query_latency_seconds"]["series"]
            if s["labels"]["kind"] == "test_kind_xyz"
        ]
        assert latency["value"]["count"] == 1
        assert latency["value"]["sum"] == 0.2
        (queries,) = [
            s for s in snap["repro_serve_queries_total"]["series"]
            if s["labels"]["kind"] == "test_kind_xyz"
        ]
        assert queries["value"] == 1


# ----------------------------------------------------------------------
# The perf-counter bridge
# ----------------------------------------------------------------------
class TestPerfBridge:
    def test_live_counters_back_onto_registry(self):
        from repro.perf.counters import COUNTERS, FAMILY

        before = COUNTERS.vf2_calls
        COUNTERS.inc("vf2_calls")
        assert COUNTERS.vf2_calls == before + 1
        fam = obs_metrics.registry().counter(
            FAMILY, labels=("counter",)
        )
        assert fam.labels(counter="vf2_calls").value == before + 1

    def test_counters_are_written_only_through_inc(self):
        from repro.perf.counters import COUNTERS

        with pytest.raises(AttributeError):
            COUNTERS.quick_rejects = 41
