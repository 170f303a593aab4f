"""Chaos suite: every fault site in ``tests/faults.py``, injected, must
end well.

"Well" means exactly one of:

* **recovered** — the pipeline absorbs the fault (retry, fallback,
  re-mine, old snapshot) and its observable result is identical to the
  fault-free baseline;
* **typed failure** — a documented exception type propagates (mapping to
  a nonzero CLI exit code via
  :func:`repro.resilience.errors.exit_code_for`), or an HTTP error
  status with an ``error`` body is returned.

What is *never* acceptable is silent divergence: a completed run whose
output differs from the baseline.  Every scenario asserts that
explicitly.

The seed is taken from ``REPRO_CHAOS_SEED`` (CI runs a small matrix);
the same seed replays the same corruption positions.
"""

import io
import json
import os
import urllib.error
import urllib.request

import pytest

from repro.graph import io as graph_io
from repro.graph.io import GraphParseError
from repro.mining.gspan import GSpanMiner
from repro.mining.store import dump_patterns, read_patterns, save_patterns
from repro.partition.dbpartition import db_partition
from repro.core.partminer import PartMiner, resolve_unit_threshold
from repro.resilience.errors import (
    ArtifactCorrupt,
    ResilienceError,
    exit_code_for,
)
from repro.runtime import RuntimeConfig, run_unit_mining
from repro.runtime.engine import UnitMiningError
from repro.serve.catalog import PatternCatalog
from repro.serve.service import PatternService

from .conftest import random_database
from .faults import SITES, FaultPlan, InjectedFault, target

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Exceptions the chaos contract accepts as a "typed failure": the
#: injected fault itself, any resilience-layer classification of it,
#: strict-parse errors, OS-level faults we injected, and the runtime's
#: all-retries-exhausted error.
TYPED_FAILURES = (
    InjectedFault,
    ResilienceError,
    GraphParseError,
    OSError,
    UnitMiningError,
)


def pattern_text(patterns):
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


def http_text(url, timeout=10):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def http_json(url, payload=None, timeout=10):
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="GET" if payload is None else "POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# ----------------------------------------------------------------------
# Scenarios: one per fault site.  Each returns None (all assertions are
# internal) and must hold for exc-injection; byte sites also run the
# flip/truncate corruptions.
# ----------------------------------------------------------------------
def scenario_artifact_write(tmp_path, plan):
    db = random_database(seed=3100 + SEED, num_graphs=6, n=5)
    patterns = GSpanMiner().mine(db, 3)
    baseline = pattern_text(patterns)
    path = tmp_path / "patterns.jsonl"

    failed = False
    with plan.active():
        try:
            save_patterns(patterns, path, atomic=True)
        except TYPED_FAILURES:
            failed = True
    if failed:
        # Crashed write: the path holds nothing (or old bytes) — never
        # a torn file that parses into different patterns.
        assert not path.exists()
    else:
        # The write "succeeded" but the plan may have corrupted the
        # bytes in flight: the read side must either return exactly the
        # original patterns or detect the damage.
        try:
            loaded, _ = read_patterns(path)
        except ArtifactCorrupt as exc:
            assert exit_code_for(exc) == 3
        else:
            assert pattern_text(loaded) == baseline
    # Recovery: a clean rewrite always round-trips.
    save_patterns(patterns, path, atomic=True)
    loaded, _ = read_patterns(path)
    assert pattern_text(loaded) == baseline


def scenario_artifact_read(tmp_path, plan):
    db = random_database(seed=3200 + SEED, num_graphs=6, n=5)
    patterns = GSpanMiner().mine(db, 3)
    baseline = pattern_text(patterns)
    path = tmp_path / "patterns.jsonl"
    save_patterns(patterns, path, atomic=True)

    with plan.active():
        try:
            loaded, _ = read_patterns(path)
        except ArtifactCorrupt as exc:
            assert exit_code_for(exc) == 3
        except TYPED_FAILURES:
            pass
        else:
            assert pattern_text(loaded) == baseline
    # Recovery: rewrite (the detected-corrupt path was quarantined) and
    # re-read clean.
    save_patterns(patterns, path, atomic=True)
    loaded, _ = read_patterns(path)
    assert pattern_text(loaded) == baseline


def scenario_graph_parse(tmp_path, plan):
    db = random_database(seed=3300 + SEED, num_graphs=5, n=5)
    path = tmp_path / "db.tve"
    graph_io.write_database(db, path)
    baseline = graph_io.dumps(graph_io.read_database(path))

    with plan.active():
        try:
            loaded = graph_io.read_database(path)
        except TYPED_FAILURES as exc:
            assert exit_code_for(exc) != 0
        else:
            assert graph_io.dumps(loaded) == baseline
    assert graph_io.dumps(graph_io.read_database(path)) == baseline


def scenario_runtime_worker_start(tmp_path, plan):
    db = random_database(seed=3400 + SEED, num_graphs=8, n=5, extra_edges=1)
    units = db_partition(db, 2).units()
    thresholds = [resolve_unit_threshold(u, 3, "exact") for u in units]
    baseline = run_unit_mining(units, thresholds)

    with plan.active():
        try:
            result = run_unit_mining(
                units, thresholds, config=RuntimeConfig(max_workers=1)
            )
        except TYPED_FAILURES:
            return  # fail-fast is acceptable; divergence is not
    # A transient worker fault retries (or falls back) into the exact
    # baseline patterns.
    for got, want in zip(result.unit_results, baseline.unit_results):
        assert pattern_text(got) == pattern_text(want)


def scenario_runtime_fallback(tmp_path, plan):
    # Force every worker attempt to die so the serial fallback is what
    # the armed fault hits.
    plan.inject("runtime.worker_start", OSError("worker lost"), times=100)
    db = random_database(seed=3500 + SEED, num_graphs=8, n=5, extra_edges=1)
    units = db_partition(db, 2).units()
    thresholds = [resolve_unit_threshold(u, 3, "exact") for u in units]
    baseline = run_unit_mining(units, thresholds)

    with plan.active():
        try:
            result = run_unit_mining(
                units,
                thresholds,
                config=RuntimeConfig(max_workers=1, max_retries=0),
            )
        except TYPED_FAILURES:
            return
    for got, want in zip(result.unit_results, baseline.unit_results):
        assert pattern_text(got) == pattern_text(want)


def scenario_cli_run(tmp_path, plan):
    from repro.cli import main

    db = random_database(seed=3700 + SEED, num_graphs=4, n=4)
    path = tmp_path / "db.tve"
    graph_io.write_database(db, path)

    with plan.active():
        try:
            code = main(["stats", str(path)])
        except TYPED_FAILURES:
            return
    assert code == 0


def scenario_serve_request(tmp_path, plan):
    catalog, db = _published(tmp_path)
    with PatternService(catalog, db) as service:
        url = service.base_url + "/healthz"
        status, baseline = http_json(url)
        assert status == 200
        with plan.active():
            status, body = http_json(url)
            assert status == 200 or "error" in body
        # The fault is spent: the service answers correctly again.
        status, body = http_json(url)
        assert status == 200
        assert body["status"] == baseline["status"] == "ok"


def scenario_serve_reload(tmp_path, plan):
    catalog, db = _published(tmp_path)
    with PatternService(catalog, db) as service:
        patterns_url = service.base_url + "/patterns"
        _, baseline = http_json(patterns_url)
        with plan.active():
            status, body = http_json(service.base_url + "/reload", {})
            assert status == 200 or "error" in body
        # Whatever the reload fault did, served answers are unchanged
        # and exactly the published snapshot.
        _, after = http_json(patterns_url)
        assert after == baseline


def scenario_obs_metrics_scrape(tmp_path, plan):
    catalog, db = _published(tmp_path)
    with PatternService(catalog, db) as service:
        metrics_url = service.base_url + "/metrics"
        status, page = http_text(metrics_url)
        assert status == 200 and "repro_serve_patterns" in page
        _, patterns_baseline = http_json(service.base_url + "/patterns")
        with plan.active():
            status, page = http_text(metrics_url)
            assert status == 200 or "error" in page
        # The fault is spent: scrapes answer again and served data is
        # exactly what it was before.
        status, page = http_text(metrics_url)
        assert status == 200 and "repro_serve_patterns" in page
        _, after = http_json(service.base_url + "/patterns")
        assert after == patterns_baseline


def scenario_storage_write(tmp_path, plan):
    from repro.storage import open_backend

    db = random_database(seed=4200 + SEED, num_graphs=6, n=5)
    baseline = graph_io.dumps(db)
    backend = open_backend("sqlite", tmp_path / "graphs.db")
    try:
        failed = False
        with plan.active():
            try:
                backend.import_database(db)
            except TYPED_FAILURES:
                # The import transaction rolled back whole — the file
                # holds either nothing or intact rows, never torn state.
                failed = True
        if not failed:
            # The write "succeeded" but a row's payload may have been
            # damaged under its stored sha256, so the read side either
            # returns the exact database or detects the damage and
            # quarantines the row.
            try:
                assert graph_io.dumps(backend.database()) == baseline
            except ArtifactCorrupt as exc:
                assert exit_code_for(exc) == 3
                assert exc.quarantined.exists()
        # Recovery: corrupt rows were deleted at quarantine time, so a
        # clean re-import heals and reads back identical.
        backend.import_database(db)
        assert graph_io.dumps(backend.database()) == baseline
    finally:
        backend.close()


def scenario_storage_read(tmp_path, plan):
    from repro.storage import open_backend

    db = random_database(seed=4300 + SEED, num_graphs=6, n=5)
    baseline = graph_io.dumps(db)
    backend = open_backend("sqlite", tmp_path / "graphs.db")
    try:
        backend.import_database(db)
        with plan.active():
            try:
                assert graph_io.dumps(backend.database()) == baseline
            except ArtifactCorrupt as exc:
                assert exit_code_for(exc) == 3
                assert exc.quarantined.exists()
            except TYPED_FAILURES:
                pass
        # Recovery: the bad row (if any) was quarantined and deleted;
        # re-importing restores it and a clean read is the baseline.
        backend.import_database(db)
        assert graph_io.dumps(backend.database()) == baseline
    finally:
        backend.close()


def _published(tmp_path):
    db = random_database(seed=3800 + SEED, num_graphs=6, n=5)
    patterns = GSpanMiner().mine(db, 3)
    catalog = PatternCatalog(tmp_path / "catalog")
    catalog.publish(patterns, database=db)
    return catalog, db


SCENARIOS = {
    "artifact.write": scenario_artifact_write,
    "artifact.read": scenario_artifact_read,
    "graph.parse": scenario_graph_parse,
    "runtime.worker_start": scenario_runtime_worker_start,
    "runtime.fallback": scenario_runtime_fallback,
    "cli.run": scenario_cli_run,
    "serve.request": scenario_serve_request,
    "serve.reload": scenario_serve_reload,
    "obs.metrics_scrape": scenario_obs_metrics_scrape,
    "storage.write": scenario_storage_write,
    "storage.read": scenario_storage_read,
}

#: Sites whose wrapper can damage stored bytes — they additionally run
#: the corruption arms, not just the exception arm.
BYTE_SITES = {
    "artifact.write",
    "artifact.read",
    "storage.write",
    "storage.read",
}


def test_every_registered_site_has_a_scenario():
    """The acceptance gate: every site has a scenario, and every site's
    wrapped boundary still exists in the product (a renamed boundary
    fails here instead of silently disarming its site)."""
    assert set(SCENARIOS) == set(SITES)
    for site in SITES:
        owner, name = target(site)
        assert callable(getattr(owner, name)), site


@pytest.mark.parametrize("site", sorted(SCENARIOS))
def test_injected_exception(site, tmp_path):
    plan = FaultPlan(seed=SEED)
    plan.inject(site, times=1)
    SCENARIOS[site](tmp_path, plan)
    assert any(f.site == site for f in plan.fired), (
        f"scenario for {site} never reached its fault site"
    )


@pytest.mark.parametrize("corruption", ["flip", "truncate"])
@pytest.mark.parametrize("site", sorted(BYTE_SITES))
def test_injected_corruption(site, corruption, tmp_path):
    plan = FaultPlan(seed=SEED)
    plan.inject(site, corrupt=corruption, times=1)
    SCENARIOS[site](tmp_path, plan)
    assert any(
        f.site == site and f.kind == "corrupt" for f in plan.fired
    )


def test_injected_os_errors(tmp_path):
    """Same drill with a realistic I/O exception instead of the default."""
    for site in ("artifact.write", "artifact.read"):
        plan = FaultPlan(seed=SEED)
        plan.inject(site, OSError(5, "Input/output error"), times=1)
        SCENARIOS[site](tmp_path, plan)
        assert plan.fired


@pytest.mark.parametrize("fault", ["exception", "flip", "truncate"])
def test_trace_write_fault_never_changes_the_mine(fault, tmp_path, capsys):
    """``mine --trace`` writes its trace through ``artifact.write`` after
    mining: a fault there leaves the exit code and the dump untouched,
    and a trace damaged on the way to disk summarizes to exit 3."""
    from repro.cli import main

    db = random_database(seed=3900 + SEED, num_graphs=8, n=5, extra_edges=1)
    path = tmp_path / "db.tve"
    graph_io.write_database(db, path)
    argv = ["mine", str(path), "3", "-k", "2"]
    assert main(argv + ["--output", str(tmp_path / "base.jsonl")]) == 0

    trace = tmp_path / "trace.jsonl"
    plan = FaultPlan(seed=SEED)
    if fault == "exception":
        plan.inject("artifact.write", times=1)
    else:
        plan.inject("artifact.write", corrupt=fault, times=1)
    with plan.active():
        code = main(argv + ["--trace", str(trace),
                            "--output", str(tmp_path / "got.jsonl")])
    assert code == 0
    (fired,) = plan.fired
    assert fired.context["path"] == str(trace)
    assert (tmp_path / "got.jsonl").read_bytes() == (
        tmp_path / "base.jsonl"
    ).read_bytes()
    if fault == "exception":
        assert not trace.exists()
        assert "repro: trace not written" in capsys.readouterr().err
    else:
        assert main(["trace", "summarize", str(trace)]) == 3
