"""Query serving: indexed engine vs linear scan over the same workload.

A fixed seeded workload — relocate every mined pattern, ask ``contains``
for every database graph, then measure coverage — runs twice: once as the
unindexed linear scan (:func:`repro.query.match` under the reference
matcher, one embedding search per (pattern, graph) pair) and once through the serving
stack (:class:`repro.serve.QueryEngine` over a published-style snapshot:
fragment index + support cache + LRU).  Both paths must produce identical
answers; the figure of merit is the number of isomorphism searches
actually entered, which the indexed path must strictly undercut.

A second indexed pass repeats every query to show the LRU absorbing a
fully warmed workload (zero further searches).

Persists ``benchmarks/results/BENCH_serving.json``.
"""

import time

import repro.query as query_mod
from repro import perf, query
from repro.bench.harness import Experiment
from repro.datagen.synthetic import generate_dataset
from repro.mining.base import Pattern, PatternSet
from repro.mining.gspan import GSpanMiner
from repro.serve.catalog import CatalogSnapshot, catalog_order
from repro.serve.engine import QueryEngine
from repro.serve.index import FragmentIndex

from .conftest import finish, run_once

DATASET = "D80T10N12L20I4"
MINSUP = 0.1


def _linear_workload(patterns, ordered, db):
    """The unindexed baseline; counts every embedding search entered."""
    counter = {"n": 0}
    real = query_mod.find_embeddings

    def counting(*args, **kwargs):
        counter["n"] += 1
        return real(*args, **kwargs)

    start = time.perf_counter()
    query_mod.find_embeddings = counting
    try:
        with perf.disabled():
            relocated = PatternSet()
            for pattern in patterns:
                gids = query.match(
                    pattern.graph, db, max_occurrences_per_graph=1
                ).supporting_gids
                relocated.add(
                    Pattern(pattern.graph, pattern.key, len(gids),
                            frozenset(gids))
                )
            contains = {}
            for gid, graph in db:
                hits = []
                for pid, entry_graph in enumerate(ordered):
                    counter["n"] += 1
                    for _ in real(entry_graph, graph, limit=1):
                        hits.append(pid)
                        break
                contains[gid] = tuple(hits)
            covered = set()
            for gid, graph in db:
                for pattern in patterns:
                    counter["n"] += 1
                    if any(True for _ in real(pattern.graph, graph, limit=1)):
                        covered.add(gid)
                        break
            cov = (len(covered) / len(db), covered)
    finally:
        query_mod.find_embeddings = real
    return {
        "relocated": relocated,
        "contains": contains,
        "coverage": cov,
        "searches": counter["n"],
        "elapsed": time.perf_counter() - start,
    }


def _indexed_workload(engine, db):
    """The same queries through the serving engine."""
    start = time.perf_counter()
    relocated = engine.relocate()
    contains = {
        gid: engine.contains(graph).pids for gid, graph in db
    }
    cov = engine.coverage()
    return {
        "relocated": relocated,
        "contains": contains,
        "coverage": cov,
        "searches": engine.totals.searches,
        "elapsed": time.perf_counter() - start,
    }


def test_query_serving(benchmark):
    def sweep():
        db = generate_dataset(DATASET, seed=9)
        patterns = GSpanMiner().mine(db, db.absolute_support(MINSUP))
        ordered = [p.graph for p in catalog_order(patterns)]
        snapshot = CatalogSnapshot(
            1, patterns, FragmentIndex.build(iter(ordered), db), {}
        )

        base = _linear_workload(patterns, ordered, db)
        engine = QueryEngine(snapshot, db)
        indexed = _indexed_workload(engine, db)

        # Behaviour preservation: byte-identical answers on every query.
        assert indexed["relocated"].keys() == base["relocated"].keys()
        for p in indexed["relocated"]:
            q = base["relocated"].get(p.key)
            assert p.support == q.support and p.tids == q.tids
        assert indexed["contains"] == base["contains"]
        assert indexed["coverage"] == base["coverage"]

        # Warm pass: the LRU must absorb a repeat of the whole workload.
        searched_once = engine.totals.searches
        repeat = _indexed_workload(engine, db)
        warm_searches = repeat["searches"] - searched_once

        exp = Experiment(
            "BENCH_serving",
            f"Query serving: linear scan vs indexed engine ({DATASET})",
            "mode (0=linear, 1=indexed, 2=indexed warm)",
            "isomorphism searches",
        )
        searches = exp.new_series("searches entered")
        rate = exp.new_series("queries/sec")
        universe = len(patterns) + len(db) + 1  # match + contains + coverage
        for x, digest in enumerate(
            [base, indexed, {**repeat, "searches": warm_searches}]
        ):
            searches.add(x, digest["searches"])
            rate.add(x, universe / max(digest["elapsed"], 1e-9))

        stats = engine.stats_dict()
        exp.notes["workload"] = {
            "dataset": DATASET,
            "minsup": MINSUP,
            "patterns": len(patterns),
            "graphs": len(db),
            "queries": universe,
        }
        exp.notes["linear"] = {
            "searches": base["searches"],
            "elapsed": round(base["elapsed"], 4),
        }
        exp.notes["indexed"] = {
            "searches": indexed["searches"],
            "pruned_pairs": stats["pruned"],
            "support_cache_hits": stats["support_cache_hits"],
            "elapsed": round(indexed["elapsed"], 4),
        }
        exp.notes["indexed_warm"] = {
            "searches": warm_searches,
            "lru_hits": stats["lru_hits"],
            "elapsed": round(repeat["elapsed"], 4),
        }
        exp.notes["search_reduction_factor"] = round(
            base["searches"] / max(1, indexed["searches"]), 3
        )
        return exp

    exp = run_once(benchmark, sweep)
    finish(exp)

    linear, indexed, warm = exp.series[0].ys()
    # The CI gate: the index must strictly cut isomorphism searches, and
    # a warmed LRU must answer the repeated workload without any.
    assert indexed < linear
    assert warm == 0
    assert exp.notes["indexed"]["pruned_pairs"] > 0
