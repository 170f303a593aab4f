"""The traced pass: the harness drives each layer itself, under spans.

Untraced reps go through the façade (``repro.cli.main`` and friends) and
cannot say where the time went.  Here the same pipeline the façade drives is
re-run stage by stage — ``read_database`` -> ``db_partition`` -> per-unit
``GastonMiner().mine`` at ``resolve_unit_threshold`` (or
``run_unit_mining``) -> bottom-up ``merge_join`` over one shared
``SupportCache`` -> ``save_patterns``; ``NeighborhoodExtractor`` -> miner ->
``MNISupport.verify`` for the single-graph workload; ``import_database``
first for the out-of-core one — with a span around every call.  The
functions that do merge-join's inner work are wrapped in this process only.
Nothing in ``src/`` is edited; spans inside the program are a later change.

The staged run must dump the same pattern records as the façade (the parent
compares digests).  If a staged entry point or wrapped attribute has moved,
that is this file falling behind a refactor, not a broken program: the pass
is reported as degraded, its metrics read ``null`` with the reason, and the
run still succeeds.
"""

from __future__ import annotations

import os
import time
import traceback

from .trace import Tracer, inclusive, layer_calls, layer_self


def install_wrappers(tr: Tracer) -> None:
    """Spans for the work inside merge-join and around the flat compile."""
    tr.wrap_function("core.merge.join", "repro.core.join", "join_patterns")
    tr.wrap_method("core.merge.count", "repro.core.join", "SupportCounter", "count")
    tr.wrap_function("graph.canonical", "repro.graph.canonical", "canonical_code")
    tr.wrap_function("perf.flat_compile", "repro.perf.flatgraph", "get_flat_db")


def staged_mine(job: dict, tr: Tracer, facts: dict) -> None:
    """The mining pipeline of the ``tx`` and ``big`` workloads, by stage."""
    p = job["params"]
    with tr.span("obs.import"):
        from repro import perf
        from repro.core.mergejoin import MergeJoinStats, merge_join
        from repro.core.partminer import resolve_unit_threshold
        from repro.graph.io import read_database
        from repro.mining.gaston import GastonMiner
        from repro.mining.store import save_patterns
        from repro.partition import db_partition
    install_wrappers(tr)
    counters = perf.snapshot()
    cache = perf.SupportCache()

    backend = None
    if "graph_cache" in p:
        from repro.storage import open_backend

        with tr.span("storage.open"):
            backend = open_backend(
                "sqlite", job["sqlite"], cache_graphs=p["graph_cache"]
            )
    with tr.span("graph.io.parse"):
        database = read_database(job["db"])
    facts["graphs"] = len(database)
    facts["edges"] = sum(g.num_edges for _gid, g in database)
    if backend is not None:
        with tr.span("storage.import"):
            facts["rows_written"] = backend.import_database(database)
            backend.checkpoint()
        database = backend.database()

    graph = None
    if job["kind"] == "big":
        from repro.biggraph import MNISupport, NeighborhoodExtractor

        graph = database[database.gids()[0]]
        threshold = int(p["support"])
        extractor = NeighborhoodExtractor(radius=p["radius"])
        with tr.span("biggraph.extract"):
            database = extractor.extract(graph)
        shape = extractor.stats(database)
        facts["pivots"], facts["edges"] = shape.pivots, shape.total_edges
    else:
        threshold = database.absolute_support(p["support"])

    with tr.span("partition.dbpartition"):
        tree = db_partition(database, p["k"])
    units = tree.units()
    facts["units"] = len(units)
    thresholds = [
        resolve_unit_threshold(unit, threshold, "paper", k=p["k"])
        for unit in units
    ]

    def mine_unit(unit, unit_threshold):
        miner = GastonMiner()
        if p.get("max_size") is not None:
            miner.max_size = p["max_size"]
        return miner.mine(unit.database, unit_threshold)

    if "workers" in p:
        from repro.runtime import RuntimeConfig, run_unit_mining

        with tr.span("runtime.pool"):
            run = run_unit_mining(
                units, thresholds,
                config=RuntimeConfig(max_workers=p["workers"]),
                miner_factory=GastonMiner,
            )
        mined = run.unit_results
        facts["telemetry"], facts["workers"] = run.telemetry, p["workers"]
    else:
        mined = []
        for unit, unit_threshold in zip(units, thresholds):
            with tr.span("mining.unit_mine"):
                mined.append(mine_unit(unit, unit_threshold))
    facts["unit_patterns"] = sum(len(found) for found in mined)
    results = {
        (unit.depth, unit.index): found for unit, found in zip(units, mined)
    }

    merge_stats = facts["merge_stats"] = []

    def combine(node):
        if node.is_leaf:
            return results[(node.depth, node.index)]
        left, right = combine(node.children[0]), combine(node.children[1])
        stats = MergeJoinStats()
        with tr.span("core.merge_join"):
            merged = merge_join(
                node.database, left, right,
                node.support_threshold(threshold),
                max_size=p.get("max_size"), stats=stats, support_cache=cache,
            )
        merge_stats.append(stats)
        return merged

    patterns = combine(tree.root)
    if graph is not None:
        facts["candidates"] = len(patterns)
        with tr.span("biggraph.mni_verify"):
            patterns = MNISupport(graph, database, p["radius"]).verify(
                patterns, threshold
            )
    with tr.span("mining.store.dump"):
        save_patterns(patterns, job["out"], atomic=True)

    facts["perf"] = perf.delta_since(counters).to_dict()
    if backend is not None:
        facts["storage"] = backend.stats()
        facts["db_bytes"] = os.path.getsize(job["sqlite"])
        backend.close()
    if "workers" in p:
        def serial_reference():
            # What the pool bought: the same units mined serially.
            start = time.perf_counter()
            for unit, unit_threshold in zip(units, thresholds):
                mine_unit(unit, unit_threshold)
            facts["serial_unit_mine_s"] = time.perf_counter() - start

        facts["after_root"] = serial_reference


def staged_inc(job: dict, tr: Tracer, facts: dict, watch) -> dict:
    from repro import perf
    from repro.core.partminer import PartMiner

    from .child import run_inc

    install_wrappers(tr)
    counters = perf.snapshot()
    stats = facts["inc_stats"] = []
    remine = facts["remine_s"] = []
    reference = []

    def after_batch(miner, result):
        stats.append(result.stats)
        # What IncPartMiner is up against: PartMiner from scratch on the
        # database as this batch left it.  Reference work: unrecorded, and
        # its counter increments are taken back out below.
        database = miner.database.copy(deep=True)
        mark = perf.snapshot()
        tr.paused = True
        with tr.span("obs.reference") as span:
            PartMiner(k=job["params"]["k"]).mine(
                database, job["params"]["support"]
            )
        remine.append(span["dur_s"])
        tr.paused = False
        reference.append(perf.delta_since(mark).to_dict())

    outcome = run_inc(job, watch, tr, after_batch)
    total = perf.delta_since(counters).to_dict()
    facts["perf"] = {
        name: count - sum(part[name] for part in reference)
        for name, count in total.items()
    }
    return outcome


def staged_query(job: dict, tr: Tracer, facts: dict, watch) -> dict:
    from repro import perf

    from .child import run_query

    install_wrappers(tr)
    counters = perf.snapshot()
    outcome = run_query(job, watch, tr)
    engine = outcome.pop("engine")
    facts["latencies"] = outcome.pop("latencies")
    facts["engine"] = engine.stats_dict()
    facts["perf"] = perf.delta_since(counters).to_dict()
    return outcome


def run(job: dict, watch) -> dict:
    """Run the traced pass; never raises for a moved entry point."""
    tr = Tracer(job["workload"])
    facts: dict = {}
    outcome = {"exit": 0}
    degraded = None
    try:
        if job["kind"] in ("tx", "big"):
            with watch.timed(), tr.span("root"):
                staged_mine(job, tr, facts)
            tr.paused = True  # reference work is not part of the workload
            facts.pop("after_root", lambda: None)()
        else:
            staged = staged_inc if job["kind"] == "inc" else staged_query
            with tr.span("root"):
                outcome = staged(job, tr, facts, watch)
    except Exception as exc:  # the boundary a refactor is allowed to break
        degraded = f"{type(exc).__name__}: {exc}"
        with open(job["log"], "a", encoding="utf-8") as log:
            traceback.print_exc(file=log)
    values, reasons = ({}, {}) if degraded else layer_metrics(tr, facts)
    outcome["traced"] = {
        "degraded": degraded,
        "metrics": values,
        "reasons": reasons,
        "spans": tr.spans,
        "root_s": tr.spans[0]["dur_s"] if tr.spans else 0.0,
    }
    return outcome


class NotMeasured(Exception):
    """A per-layer metric has no span to read; the message says why."""


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tr: Tracer, facts: dict) -> tuple[dict, dict]:
    """Every per-layer metric this pass can support, and why not the rest.

    A metric whose span never ran on this workload, or whose wrapped
    attribute was missing, reads ``None`` with the reason.
    """
    own = layer_self(tr.spans)
    calls = layer_calls(tr.spans)

    def fact(key):
        if key not in facts:
            raise NotMeasured("its layer does not run on this workload")
        return facts[key]

    def recorded(totals, name):
        if name in tr.missing:
            raise NotMeasured(tr.missing[name])
        if name not in totals:
            raise NotMeasured("no such span on this workload")
        return totals[name]

    def self_s(name):
        return lambda: recorded(own, name)

    def per_s(key, span):
        return lambda: fact(key) / inclusive(tr.spans, span)

    def ratio(num, den):
        return num / den if den else None

    def merged(field):
        return lambda: sum(getattr(s, field) for s in fact("merge_stats"))

    def inc_sum(field):
        return lambda: sum(getattr(s, field) for s in fact("inc_stats"))

    def counter(name):
        return lambda: fact("perf")[name]

    def unit_spans():
        found = [s["dur_s"] for s in tr.spans if s["name"] == "mining.unit_mine"]
        if not found:
            raise NotMeasured("no such span on this workload")
        return found

    def cache_ratio():
        hits = fact("perf")["support_cache_hits"]
        return ratio(hits, hits + fact("perf")["support_cache_misses"])

    def pool_busy():
        return sum(unit.wall_time for unit in fact("telemetry").units)

    def storage(key):
        return lambda: fact("storage")["cache"][key]

    def engine(key):
        return lambda: fact("engine")[key]

    def big_mine_s():
        # On this workload the candidate miner is the one unit's Gaston run.
        fact("pivots")
        return recorded(own, "mining.unit_mine")

    def latency_ms(kind, q):
        return lambda: 1e3 * _percentile(fact("latencies")[kind], q)

    table = {
        "obs.import_s": self_s("obs.import"),
        "graph.io.parse_s": self_s("graph.io.parse"),
        "graph.io.graphs_per_s": per_s("graphs", "graph.io.parse"),
        "mining.store.dump_s": self_s("mining.store.dump"),
        "partition.dbpartition_s": self_s("partition.dbpartition"),
        "partition.units": lambda: fact("units"),
        "partition.edges_per_s": per_s("edges", "partition.dbpartition"),
        "mining.unit_mine_s": self_s("mining.unit_mine"),
        "mining.unit_mine_max_s": lambda: max(unit_spans()),
        "mining.unit_patterns": lambda: fact("unit_patterns"),
        "mining.unit_patterns_per_s": lambda: (
            fact("unit_patterns") / sum(unit_spans())),
        "core.merge_join_s": self_s("core.merge_join"),
        "core.merge.join_s": self_s("core.merge.join"),
        "graph.canonical.calls": lambda: recorded(calls, "graph.canonical"),
        "graph.canonical.self_s": self_s("graph.canonical"),
        "core.merge.count_s": self_s("core.merge.count"),
        "core.merge.carried": merged("carried_patterns"),
        "core.merge.candidates": merged("candidates_generated"),
        "core.merge.useful_ratio": lambda: ratio(
            merged("candidates_frequent")(), merged("candidates_generated")()),
        "core.merge.isomorphism_tests": merged("isomorphism_tests"),
        "core.merge.levels_skipped": merged("join_levels_skipped"),
        "core.merge.pairs_pruned": merged("join_pairs_pruned"),
        "perf.flat_compile_s": self_s("perf.flat_compile"),
        "perf.flat_db_compiles": counter("flat_db_compiles"),
        "perf.vf2_calls": counter("vf2_calls"),
        "perf.flat_searches": counter("flat_searches"),
        "perf.quick_rejects": counter("quick_rejects"),
        "perf.fingerprint_rejects": counter("fingerprint_rejects"),
        "perf.support_cache_hit_ratio": cache_ratio,
        "runtime.pool_s": self_s("runtime.pool"),
        "runtime.worker_busy_s": pool_busy,
        "runtime.overhead_s": lambda: (
            inclusive(tr.spans, "runtime.pool") * fact("workers") - pool_busy()),
        "runtime.attempts": lambda: fact("telemetry").summary()["attempts"],
        "runtime.retries": lambda: fact("telemetry").summary()["retries"],
        "runtime.parallel_gain": per_s("serial_unit_mine_s", "runtime.pool"),
        "storage.import_s": self_s("storage.import"),
        "storage.rows_written": lambda: fact("rows_written"),
        "storage.cache_hits": storage("hits"),
        "storage.cache_misses": storage("misses"),
        "storage.cache_hit_ratio": lambda: ratio(
            storage("hits")(), storage("hits")() + storage("misses")()),
        "storage.bytes_per_graph": lambda: fact("db_bytes") / fact("graphs"),
        "core.inc.apply_s": self_s("core.inc.apply"),
        "core.inc.repartition_s": inc_sum("repartition_time"),
        "core.inc.remine_s": inc_sum("remine_time"),
        "core.inc.merge_s": inc_sum("merge_time"),
        "core.inc.classify_s": inc_sum("classify_time"),
        "core.inc.units_remined": inc_sum("units_remined"),
        "core.inc.known_reused": inc_sum("known_reused"),
        "core.inc.speedup_vs_remine": lambda: (
            sum(fact("remine_s")) / inclusive(tr.spans, "core.inc.apply")),
        "biggraph.extract_s": self_s("biggraph.extract"),
        "biggraph.pivots_per_s": per_s("pivots", "biggraph.extract"),
        "biggraph.mine_s": big_mine_s,
        "biggraph.candidates": lambda: fact("candidates"),
        "biggraph.mni_verify_s": self_s("biggraph.mni_verify"),
        "biggraph.mni_patterns_per_s": per_s("candidates", "biggraph.mni_verify"),
        "serve.index_build_s": self_s("serve.index_build"),
        "serve.relocate_s": self_s("serve.relocate"),
        "serve.contains_p50_ms": latency_ms("contains", 0.5),
        "serve.contains_p95_ms": latency_ms("contains", 0.95),
        "serve.match_p50_ms": latency_ms("match", 0.5),
        "serve.prune_ratio": lambda: ratio(
            engine("pruned")(), engine("universe")()),
        "serve.searches": engine("searches"),
        "serve.lru_hit_ratio": lambda: ratio(
            engine("lru_hits")(), engine("queries")()),
    }
    values, reasons = {}, {}
    for name, derive in table.items():
        try:
            values[name] = derive()
        except NotMeasured as exc:
            values[name], reasons[name] = None, str(exc)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            # A result object changed shape under this file.
            values[name] = None
            reasons[name] = f"not measured: {type(exc).__name__}: {exc}"
        else:
            if values[name] is None:
                reasons[name] = "nothing to take the ratio of"
    return values, reasons
