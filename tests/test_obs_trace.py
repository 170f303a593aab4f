"""Tests for tracing spans (repro.obs.trace), the trace file and the
summarizer.

The centerpiece is span-tree well-formedness under the parallel runtime:
a traced ``PartMiner`` run with worker processes must produce a single
tree — one root, zero orphans — whose unit/attempt/worker spans line up
with the runtime's record, even when workers are killed by fault
injection.
The trace file is the tracer's span list, written once and sealed: it
loads back exactly, or raises.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, perf
from repro.cli import main
from repro.core.partminer import PartMiner
from repro.graph import io as graph_io
from repro.obs import load_spans, summarize_spans
from repro.obs import trace as obs_trace
from repro.obs.summarize import build_tree
from repro.obs.trace import NULL_SPAN, Span, Tracer
from repro.resilience import integrity
from repro.resilience.errors import ArtifactCorrupt
from repro.runtime import RuntimeConfig

from .conftest import random_database
from .faults import FaultPlan, InjectedFault


def span_tree(tracer):
    roots, orphans = build_tree(tracer.spans())
    return roots, orphans


# ----------------------------------------------------------------------
# Core span mechanics
# ----------------------------------------------------------------------
class TestSpanBasics:
    def test_nesting_parents_automatically(self):
        tracer = Tracer()
        with obs_trace.tracing(tracer):
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    assert inner.parent_id == outer.span_id
                assert obs_trace.current_span_id() == outer.span_id
        spans = {s["name"]: s for s in tracer.spans()}
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert all(s["trace_id"] == tracer.trace_id for s in spans.values())

    def test_attrs_status_and_duration(self):
        tracer = Tracer()
        with obs_trace.tracing(tracer):
            with obs.span("work", size=3) as node:
                node.set_attr("extra", "x")
                node.set_attrs(more=1)
        (data,) = tracer.spans()
        assert data["attrs"] == {"size": 3, "extra": "x", "more": 1}
        assert data["status"] == "ok"
        assert data["duration"] >= 0

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with obs_trace.tracing(tracer):
            with pytest.raises(RuntimeError):
                with obs.span("boom"):
                    raise RuntimeError("no")
        (data,) = tracer.spans()
        assert data["status"] == "error"
        assert "RuntimeError" in data["attrs"]["status_detail"]

    def test_no_tracer_yields_null_span(self):
        with obs.span("free") as node:
            assert node is NULL_SPAN
            node.set_attr("ignored", 1)  # must not raise

    def test_explicit_parent_for_thread_handoff(self):
        tracer = Tracer()
        with obs_trace.tracing(tracer):
            with obs.span("parent") as parent:
                captured = parent.span_id
            with obs_trace.under(captured), obs.span("cross-thread"):
                pass
            assert obs_trace.current_span_id() is None
        spans = {s["name"]: s for s in tracer.spans()}
        assert spans["cross-thread"]["parent_id"] == captured

    def test_begin_finish_manual_spans(self):
        tracer = Tracer()
        with obs_trace.tracing(tracer):
            with obs.span("outer") as outer:
                step = obs_trace.begin("step", n=1)
                # begin() does NOT become the contextvar parent.
                assert obs_trace.current_span_id() == outer.span_id
                obs_trace.finish(step)
        spans = {s["name"]: s for s in tracer.spans()}
        assert spans["step"]["parent_id"] == spans["outer"]["span_id"]

    def test_traced_decorator(self):
        tracer = Tracer()

        @obs_trace.traced("decorated", tag=7)
        def work():
            return 42

        with obs_trace.tracing(tracer):
            assert work() == 42
        (data,) = tracer.spans()
        assert data["name"] == "decorated"
        assert data["attrs"] == {"tag": 7}

    def test_span_dict_round_trip(self):
        node = Span("x", "t1", None, {"a": 1})
        node.end()
        clone = Span.from_dict(node.to_dict())
        assert clone.to_dict() == node.to_dict()


# ----------------------------------------------------------------------
# Worker-process handoff
# ----------------------------------------------------------------------
class TestHandoff:
    def test_handoff_round_trip_joins_parent_trace(self):
        parent = Tracer()
        with obs_trace.tracing(parent):
            with obs.span("unit.attempt") as attempt:
                handoff = obs_trace.current_handoff()
                assert handoff == {
                    "trace_id": parent.trace_id,
                    "parent_id": attempt.span_id,
                }
        # Simulate the child process: fresh tracer from the handoff.
        obs_trace.begin_in_child(handoff)
        with obs.span("unit.worker"):
            pass
        child_spans = obs_trace.collect_child_spans()
        assert obs_trace.active() is None
        parent.adopt(child_spans)

        roots, orphans = span_tree(parent)
        assert not orphans
        (root,) = roots
        assert root["name"] == "unit.attempt"
        assert root["children"][0]["name"] == "unit.worker"

    def test_handoff_is_none_when_untraced(self):
        assert obs_trace.current_handoff() is None

    def test_adopt_rewrites_foreign_trace_ids(self):
        tracer = Tracer(trace_id="mine")
        tracer.adopt([{"name": "s", "trace_id": "theirs", "span_id": "1"}])
        (data,) = tracer.spans()
        assert data["trace_id"] == "mine"


# ----------------------------------------------------------------------
# The trace file: Tracer.save / load_spans
# ----------------------------------------------------------------------
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


def traced_spans(count):
    tracer = Tracer()
    with obs_trace.tracing(tracer):
        with obs.span("root"):
            for i in range(count):
                with obs.span("step", i=i):
                    pass
    return tracer


class TestSaveLoad:
    def test_spans_round_trip_with_footer(self, tmp_path):
        tracer = traced_spans(5)
        path = tracer.save(tmp_path / "deep" / "trace.jsonl")
        assert integrity.FOOTER_PREFIX in path.read_text()
        assert load_spans(path) == tracer.spans()
        # The write is atomic: no temp file is left next to the trace.
        assert [p.name for p in path.parent.iterdir()] == ["trace.jsonl"]

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(JSON_VALUES, max_size=10))
    def test_arbitrary_json_attrs_round_trip(self, values, tmp_path_factory):
        """Property: any JSON-representable attribute survives the file."""
        # tmp_path_factory, not tmp_path: hypothesis reuses the fixture
        # across generated examples and each needs a fresh file.
        path = tmp_path_factory.mktemp("trace_prop") / "prop.jsonl"
        tracer = Tracer()
        with obs_trace.tracing(tracer):
            for value in values:
                with obs.span("s", payload=value):
                    pass
        tracer.save(path)
        assert load_spans(path) == tracer.spans()

    def test_concurrent_recording_loses_no_span(self, tmp_path):
        tracer = Tracer()
        threads, per_thread = 8, 200
        barrier = threading.Barrier(threads)

        def worker(tid):
            barrier.wait(timeout=30)
            for i in range(per_thread):
                with obs.span("w", tid=tid, i=i):
                    pass

        with obs_trace.tracing(tracer):
            pool = [
                threading.Thread(target=worker, args=(t,))
                for t in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pool)
        spans = load_spans(tracer.save(tmp_path / "hammer.jsonl"))
        assert len(spans) == threads * per_thread
        by_tid: dict[int, list[int]] = {}
        for span in spans:
            by_tid.setdefault(span["attrs"]["tid"], []).append(
                span["attrs"]["i"]
            )
        assert all(seq == list(range(per_thread)) for seq in by_tid.values())

    def test_write_fault_leaves_no_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        plan = FaultPlan(seed=0)
        plan.inject("artifact.write", times=1)
        with plan.active(), pytest.raises(InjectedFault):
            traced_spans(2).save(path)
        assert plan.fired
        assert list(tmp_path.iterdir()) == []

    def test_injected_corruption_is_detected_at_read_time(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        plan = FaultPlan(seed=1)
        plan.inject("artifact.write", corrupt="flip", times=1)
        with plan.active():
            traced_spans(4).save(path)
        assert any(f.kind == "corrupt" for f in plan.fired)
        with pytest.raises(ArtifactCorrupt) as excinfo:
            load_spans(path)
        assert excinfo.value.quarantined.exists()

    def test_truncated_trace_is_rejected(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"event": "span"}) + "\n" + '{"i": 1, "trunc',
            encoding="utf-8",
        )
        with pytest.raises(ArtifactCorrupt, match="footer missing"):
            load_spans(path)
        assert not path.exists()  # quarantined

    def test_event_sink_trace_still_loads(self, tmp_path):
        """A trace sealed by the former streaming writer: span lines, a
        ``sink_stats`` line, then the same footer."""
        tracer = traced_spans(3)
        stats = {"event": "sink_stats", "written_events": 5,
                 "dropped_events": 0, "time": 0.0}
        lines = [*tracer.spans(), stats]
        path = tmp_path / "old.jsonl"
        path.write_text(integrity.frame("".join(
            json.dumps(line, sort_keys=True) + "\n" for line in lines
        )))
        assert load_spans(path) == tracer.spans()


# ----------------------------------------------------------------------
# End-to-end: the parallel runtime under a tracer
# ----------------------------------------------------------------------
def mine_traced(db, support=3, config=None):
    tracer = Tracer()
    with obs_trace.tracing(tracer):
        result = PartMiner(
            k=2,
            runtime=config or RuntimeConfig(max_workers=2),
        ).mine(db, support)
    return result, tracer


class TestParallelRuntimeTree:
    def test_tree_is_well_formed(self):
        db = random_database(seed=4100, num_graphs=8, n=5, extra_edges=1)
        result, tracer = mine_traced(db)

        roots, orphans = span_tree(tracer)
        assert orphans == []
        assert len(roots) == 1
        root = roots[0]
        assert root["name"] == "partminer.mine"
        phases = [c["name"] for c in root["children"]]
        assert phases == [
            "partminer.partition", "partminer.units", "partminer.merge",
        ]

        def collect(node, names):
            names.append(node["name"])
            for child in node["children"]:
                collect(child, names)

        names: list[str] = []
        collect(root, names)
        # One unit.mine per unit, each with an attempt, each attempt
        # with the worker-process span adopted across the handoff.
        assert names.count("unit.mine") == len(result.tree.units())
        assert names.count("unit.attempt") >= names.count("unit.mine")
        assert names.count("unit.worker") >= 1
        assert names.count("merge.level") == len(result.merge_times)
        assert names.count("merge.counter") == len(result.merge_times)

    def test_counter_build_is_a_span_under_each_level(self):
        db = random_database(seed=4150, num_graphs=8, n=5, extra_edges=1)
        tracer = Tracer()
        with obs_trace.tracing(tracer):
            result = PartMiner(k=4).mine(db, 3)
        by_id = {s["span_id"]: s for s in tracer.spans()}
        counters = [s for s in by_id.values() if s["name"] == "merge.counter"]
        assert len(counters) == len(result.merge_times) == 3
        for span in counters:
            assert by_id[span["parent_id"]]["name"] == "merge.level"
            # Every level dataset is a new database: compiled, not a hit.
            assert span["attrs"] == {
                "graphs": len(db), "compiled": perf.enabled(),
            }

    def test_worker_spans_parent_to_their_attempt(self):
        db = random_database(seed=4200, num_graphs=6, n=5)
        _result, tracer = mine_traced(db)
        spans = tracer.spans()
        by_id = {s["span_id"]: s for s in spans}
        workers = [s for s in spans if s["name"] == "unit.worker"]
        assert workers
        for worker in workers:
            parent = by_id[worker["parent_id"]]
            assert parent["name"] == "unit.attempt"
            assert worker["trace_id"] == tracer.trace_id

    def test_crashed_worker_leaves_no_orphans(self):
        db = random_database(seed=4300, num_graphs=8, n=5, extra_edges=1)
        baseline, _ = mine_traced(db)

        plan = FaultPlan(seed=0)
        plan.inject("runtime.worker_start", OSError("lost"), times=1)
        with plan.active():
            result, tracer = mine_traced(
                db,
                config=RuntimeConfig(max_workers=1, max_retries=2),
            )
        assert plan.fired

        roots, orphans = span_tree(tracer)
        assert orphans == []
        assert len(roots) == 1
        # The failed attempt is in the tree, marked, and the retry
        # recovered the exact baseline patterns.
        attempts = [
            s for s in tracer.spans() if s["name"] == "unit.attempt"
        ]
        assert any(s["status"] == "error" for s in attempts)
        assert result.patterns.keys() == baseline.patterns.keys()

    def test_prune_attribution_agrees_between_serial_and_parallel(self):
        db = random_database(seed=4600, num_graphs=8, n=6, extra_edges=1)
        serial_tracer = Tracer()
        with obs_trace.tracing(serial_tracer):
            serial = PartMiner(k=2).mine(db, 3)
        _parallel, parallel_tracer = mine_traced(db)

        keys = ("candidates", "duplicates_pruned", "infrequent_edges")
        serial_units = {
            s["attrs"]["unit"]: {k: s["attrs"][k] for k in keys}
            for s in serial_tracer.spans()
            if s["name"] == "unit.mine"
        }
        assert len(serial_units) == 2
        assert all(unit["candidates"] > 0 for unit in serial_units.values())

        by_id = {s["span_id"]: s for s in parallel_tracer.spans()}
        worker_units = {}
        for node in by_id.values():
            if node["name"] != "unit.worker":
                continue
            unit_span = by_id[by_id[node["parent_id"]]["parent_id"]]
            worker_units[unit_span["attrs"]["unit"]] = {
                k: node["attrs"][k] for k in keys
            }
        assert worker_units == serial_units

        for tracer in (serial_tracer, parallel_tracer):
            (partition,) = [
                s for s in tracer.spans()
                if s["name"] == "partminer.partition"
            ]
            # Every graph of n >= 2 vertices walks n // 2 seeds.
            assert partition["attrs"]["seeds"] == sum(
                graph.num_vertices // 2 for _gid, graph in db
            )
            assert (
                partition["attrs"]["cut_edges"]
                == serial.tree.total_connective_edges()
            )

    def test_untraced_parallel_run_records_nothing(self):
        db = random_database(seed=4400, num_graphs=6, n=5)
        result = PartMiner(
            k=2,
            runtime=RuntimeConfig(max_workers=2),
        ).mine(db, 3)
        assert obs_trace.active() is None
        assert len(result.patterns) > 0


# ----------------------------------------------------------------------
# Summarizer
# ----------------------------------------------------------------------
class TestSummarize:
    def test_renders_tree_with_counts(self):
        db = random_database(seed=4500, num_graphs=6, n=5)
        _result, tracer = mine_traced(db)
        text = summarize_spans(tracer.spans())
        assert "partminer.mine" in text
        assert "unit.attempt" in text
        assert "0 orphan(s)" in text
        assert "1 root(s)" in text

    def test_orphans_are_reported_not_lost(self):
        spans = [
            {"name": "lonely", "span_id": "a", "parent_id": "ghost",
             "trace_id": "t", "start_time": 0.0, "duration": 0.1,
             "status": "ok", "attrs": {}},
        ]
        text = summarize_spans(spans)
        assert "(orphans)" in text
        assert "1 orphan(s)" in text


# ----------------------------------------------------------------------
# The CLI: mine --trace, trace summarize
# ----------------------------------------------------------------------
@pytest.fixture()
def db_file(tmp_path):
    path = tmp_path / "db.tve"
    graph_io.write_database(
        random_database(seed=4700, num_graphs=8, n=5, extra_edges=1), path
    )
    return path


class TestTraceCLI:
    @pytest.mark.parametrize("flags", [[], ["--parallel", "--workers", "2"]])
    def test_mine_trace_summarizes_to_one_tree(
        self, db_file, tmp_path, capsys, flags
    ):
        trace = tmp_path / "t.jsonl"
        assert main(["mine", str(db_file), "3", "-k", "2", "--trace",
                     str(trace), *flags]) == 0
        spans = load_spans(trace)
        assert f"trace written to {trace} ({len(spans)} spans)" in (
            capsys.readouterr().out
        )
        assert main(["trace", "summarize", str(trace)]) == 0
        text = capsys.readouterr().out
        assert "1 root(s), 0 orphan(s)" in text
        assert text.count("unit.mine") == 2
        if flags:
            # The trace alone says what each unit and each attempt did.
            units = [s for s in spans if s["name"] == "unit.mine"]
            attempts = [s for s in spans if s["name"] == "unit.attempt"]
            assert len(units) == 2
            for unit in units:
                assert unit["attrs"]["status"] == "ok"
                assert unit["attrs"]["patterns"] >= 0
                mine = [a for a in attempts
                        if a["parent_id"] == unit["span_id"]]
                assert len(mine) == unit["attrs"]["attempts"]
            assert len(attempts) == sum(
                unit["attrs"]["attempts"] for unit in units
            )
            for attempt in attempts:
                attrs = attempt["attrs"]
                assert attrs["outcome"] == "ok"
                assert attrs["slot"] in ("w0", "w1")
                assert isinstance(attrs["pid"], int) and attrs["pid"] > 0
            assert "unit.worker" in text

    @pytest.mark.parametrize("flags", [[], ["--parallel", "--workers", "2"]])
    def test_traced_dump_is_byte_identical_to_untraced(
        self, db_file, tmp_path, flags
    ):
        """Tracing records the run and changes nothing it produces."""
        plain, traced = tmp_path / "plain.jsonl", tmp_path / "traced.jsonl"
        argv = ["mine", str(db_file), "3", "-k", "4", *flags]
        assert main([*argv, "--output", str(plain)]) == 0
        assert main([*argv, "--output", str(traced),
                     "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert load_spans(tmp_path / "t.jsonl")
        assert traced.read_bytes() == plain.read_bytes()

    def test_damaged_trace_exits_3_and_is_quarantined(
        self, db_file, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        assert main(["mine", str(db_file), "3", "--trace", str(trace)]) == 0
        trace.write_bytes(trace.read_bytes()[:-5])
        assert main(["trace", "summarize", str(trace)]) == 3
        assert "corrupt artifact" in capsys.readouterr().err
        assert not trace.exists()
        assert (tmp_path / "t.jsonl.corrupt" / "t.jsonl").exists()
