"""Self-test of the ladder: ``pytest benchmarks/ladder``.

Runs all seven workloads at the ``--quick`` sizes (one rep and one traced
pass each, under a minute) and checks the harness, not the program: the
contract file's shape, span-tree invariants, staged-vs-façade digests, the
degradation rule and the comparer.
"""

from __future__ import annotations

import copy
import json
import re
import time

import pytest

from . import check, compare, inputs, spec, stages
from .__main__ import run_ladder
from .trace import Tracer, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_run():
    started = time.perf_counter()
    result = run_ladder(seed=1, reps=1, quick=True, keep_spans=True)
    result["elapsed_s"] = time.perf_counter() - started
    return result


def test_contract_file_shape():
    contract = spec.load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/ladder"]
    assert 1 <= contract["run_seconds"] <= 60
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len(contract["end_to_end"]) <= 16
    assert len(contract["per_layer"]) <= 128
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    by_name = {m["name"]: m for m in contract["end_to_end"]}
    assert by_name["setup_s"]["unit"] == "s"
    assert by_name["setup_s"]["better"] == "lower"
    assert by_name["setup_s"]["bound"] == max(
        m["bound"] for m in contract["end_to_end"]
    )
    assert len(spec.end_to_end_metrics()) == 8


def test_every_declared_layer_metric_is_derived():
    derived, _reasons = stages.layer_metrics(Tracer("none"), {})
    declared = {m["name"] for m in spec.per_layer_metrics()}
    # The two the parent computes from a second run.
    assert declared - set(derived) == {
        "obs.trace_overhead_ratio", "storage.ooc_slowdown",
    }
    assert set(derived) <= declared


def test_quick_ladder_runs_clean(quick_run):
    assert quick_run["claim"] is None
    assert quick_run["env"]["scale"] == "quick"
    assert list(quick_run["workloads"]) == list(spec.WORKLOADS)
    for name, outcome in quick_run["workloads"].items():
        assert outcome["failures"] == [], name
        assert outcome["failed"] == 0, name
        assert outcome["degraded"] is None, name
        for metric in spec.end_to_end_metrics():
            assert outcome["end_to_end"][metric["name"]]["median"] is not None
        assert outcome["end_to_end"]["wall_s"]["median"] > 0
        if name != "inc-update":
            assert outcome["end_to_end"]["precision"]["median"] == 1.0, name
        assert set(outcome["per_layer"]) == {
            m["name"] for m in spec.per_layer_metrics()
        }
        for metric, value in outcome["per_layer"].items():
            assert value is not None or metric in outcome["null_reasons"]
    assert quick_run["elapsed_s"] < 60


def test_the_layers_each_workload_is_here_for_are_measured(quick_run):
    expect = {
        "tx-merge": ["core.merge_join_s", "core.merge.join_s", "core.merge.count_s"],
        "tx-front": ["partition.dbpartition_s", "mining.unit_mine_s"],
        "tx-par": ["runtime.pool_s", "runtime.parallel_gain"],
        "tx-ooc": ["storage.import_s", "storage.cache_hit_ratio",
                   "storage.ooc_slowdown"],
        "inc-update": ["core.inc.apply_s", "core.inc.speedup_vs_remine"],
        "big-mni": ["biggraph.extract_s", "biggraph.mni_verify_s"],
        "query-mix": ["serve.relocate_s", "serve.contains_p95_ms"],
    }
    for name, metrics in expect.items():
        for metric in metrics:
            assert quick_run["workloads"][name]["per_layer"][metric], (name, metric)


def test_span_trees_are_sound(quick_run):
    for name, outcome in quick_run["workloads"].items():
        spans = outcome["spans"]
        assert spans and spans[0]["parent"] is None, name
        own = self_times(spans)
        for span in spans:
            assert span["workload"] == name
            assert own[span["id"]] >= -1e-6, (name, span["name"])
            if span["parent"] is None:
                assert span is spans[0], "one root per pass"
                continue
            parent = spans[span["parent"]]
            assert parent["id"] < span["id"]
            assert parent["start"] <= span["start"] + 1e-6
            assert span["end"] <= parent["end"] + 1e-6
        assert sum(own.values()) == pytest.approx(spans[0]["dur_s"], rel=0.05)


def test_missing_attribute_degrades_the_layer_not_the_run():
    tr = Tracer("t")
    tr.wrap_function("core.merge.join", "repro.core.join", "no_such_function")
    tr.wrap_method("core.merge.count", "repro.no_such_module", "X", "count")
    assert "no_such_function" in tr.missing["core.merge.join"]
    values, reasons = stages.layer_metrics(tr, {})
    assert values["core.merge.join_s"] is None
    assert "no_such_function" in reasons["core.merge.join_s"]
    assert "no_such_module" in reasons["core.merge.count_s"]


def test_wrapped_function_aggregates_under_its_caller():
    tr = Tracer("t")
    calls = []
    wrapped = tr.wrap("leaf", lambda x: calls.append(x))
    with tr.span("root"):
        for i in range(5):
            wrapped(i)
        tr.paused = True
        wrapped(99)
    assert calls == [0, 1, 2, 3, 4, 99]
    leaf = [s for s in tr.spans if s["name"] == "leaf"]
    assert len(leaf) == 1 and leaf[0]["calls"] == 5 and leaf[0]["parent"] == 0


def test_digest_covers_pattern_records_only(tmp_path):
    record = json.dumps({"kind": "pattern", "vertices": [1, 2],
                         "edges": [[0, 1, 3]], "tids": [4, 5], "support": 2})
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"kind": "header", "backend": "memory"}\n' + record + "\n")
    b.write_text('{"kind": "header", "backend": "sqlite"}\n' + record
                 + "\n#sha256 deadbeef\n")
    assert check.pattern_digest(a) == check.pattern_digest(b)
    emitted = check.supports(check.read_records(a))
    assert check.recall(emitted, emitted) == check.precision(emitted, emitted) == 1
    wrong = {key: support + 1 for key, support in emitted.items()}
    assert check.precision(emitted, wrong) == 0
    assert check.stale(emitted, wrong)[0]["claimed"] == 2


def test_seed_permutes_without_changing_the_work(tmp_path):
    def variant(seed):
        path = tmp_path / f"s{seed}.tve"
        path.write_text("t # 0\nv 0 1\nv 1 2\ne 0 1 3\n"
                        "t # 1\nv 0 2\nv 1 2\nv 2 1\ne 0 1 3\ne 1 2 4\n"
                        "t # 2\nv 0 5\n")
        inputs.permute_tve([path], seed, shuffle_graphs=True)
        return path.read_text()

    assert variant(3) == variant(3)
    assert len({variant(seed) for seed in range(8)}) > 1
    shapes = {
        tuple(sorted(len(g) for g in inputs.read_tve(tmp_path / f"s{seed}.tve")))
        for seed in range(8)
    }
    assert shapes == {(1, 3, 5)}


def test_comparer_flags_a_slowdown_and_passes_itself(quick_run):
    rows, code = compare.compare(quick_run, quick_run)
    assert code == 0 and {row["verdict"] for row in rows} == {"within"}

    # Half again over the bound, whatever BENCHMARK.json sets it to.
    bound = {m["name"]: m["bound"] for m in spec.end_to_end_metrics()}["wall_s"]
    factor = 1 + 1.5 * bound
    slower = copy.deepcopy(quick_run)
    cell = slower["workloads"]["tx-merge"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        cell[key] *= factor
    cell["reps"] = [value * factor for value in cell["reps"]]
    rows, code = compare.compare(quick_run, slower)
    assert code == 1
    worse = [row for row in rows if row["verdict"] == "worse"]
    assert [(row["workload"], row["metric"]) for row in worse] == [
        ("tx-merge", "wall_s")
    ]
    assert worse[0]["ratio"] == pytest.approx(factor)

    failing = copy.deepcopy(quick_run)
    cell = failing["workloads"]["big-mni"]["end_to_end"]["failed_ratio"]
    cell.update(median=1 / 3, min=1 / 3, max=1 / 3, reps=[1 / 3])
    assert compare.compare(quick_run, failing)[1] == 1


def test_comparer_reports_wide_spread_as_unresolved():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.10}
    a = {"median": 1.0, "min": 0.8, "max": 1.2, "reps": [0.8, 1.0, 1.2]}
    b = {"median": 1.15, "min": 0.9, "max": 1.3, "reps": [0.9, 1.15, 1.3]}
    assert compare.verdict(metric, a, b) == "unresolved"
    c = {"median": 1.5, "min": 1.3, "max": 1.7, "reps": [1.3, 1.5, 1.7]}
    assert compare.verdict(metric, a, c) == "worse"
    assert compare.verdict(metric, c, a) == "better"
