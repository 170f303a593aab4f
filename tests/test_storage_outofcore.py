"""Out-of-core acceptance: mining/serving a database larger than memory.

The tentpole claim of the storage subsystem: a database several times
larger than the decoded-graph cache budget mines **byte-identically** to
the in-memory path while only a bounded number of decoded graphs is ever
resident.  Residency is asserted with the :class:`GraphLRU`'s
``max_live`` high-water — a WeakSet over every decoded graph still
referenced anywhere in the process — which is the deterministic,
machine-independent form of "peak RSS is bounded by the cache budget,
not the database size" (the actual process-level RSS ratio is measured
and reported by ``benchmarks/bench_storage.py``).

The serving half: a catalog published over the store (by the library or
by ``repro serve --backend sqlite``) reloads from disk and answers like
the memory backend, telling stale graphs by row sha without decoding.
"""

import io
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro import perf
from repro.core.mergejoin import merge_join
from repro.core.partminer import PartMiner, resolve_unit_threshold
from repro.graph.io import read_database, write_database
from repro.mining.gaston import GastonMiner
from repro.mining.gspan import GSpanMiner
from repro.mining.store import dump_patterns, read_patterns, save_patterns
from repro.partition import db_partition
from repro.serve.catalog import CatalogSnapshot, PatternCatalog, catalog_order
from repro.serve.engine import QueryEngine
from repro.serve.index import FragmentIndex
from repro.storage import open_backend

from .conftest import random_database

#: Cache budget and database size: 48 graphs through 8 decode slots is a
#: 6x (>= the acceptance floor of 4x) out-of-core ratio.
CACHE_GRAPHS = 8
NUM_GRAPHS = 6 * CACHE_GRAPHS

#: Slack over the budget for graphs pinned by the active iteration frame
#: (the for-loop variable, the matcher's current target, ...).
LIVE_SLACK = 4


def pattern_text(patterns):
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def database():
    return random_database(seed=55, num_graphs=NUM_GRAPHS, n=6)


def stored(
    tmp_path, database, name="outofcore.db", cache_graphs=CACHE_GRAPHS
):
    backend = open_backend(
        "sqlite", tmp_path / name, cache_graphs=cache_graphs
    )
    backend.import_database(database)
    backend.cache.clear()
    backend.cache.max_live = 0
    backend.cache.max_cached = 0
    return backend


@pytest.mark.parametrize(
    "make_miner",
    [
        pytest.param(lambda: GastonMiner(), id="gaston"),
        pytest.param(lambda: PartMiner(k=2), id="partminer"),
    ],
)
def test_mine_larger_than_cache_is_byte_identical_and_bounded(
    tmp_path, database, make_miner
):
    assert NUM_GRAPHS >= 4 * CACHE_GRAPHS
    baseline = make_miner().mine(database, 6)
    base_text = pattern_text(getattr(baseline, "patterns", baseline))
    backend = stored(tmp_path, database)
    try:
        mined = make_miner().mine(backend.database(), 6)
        assert pattern_text(getattr(mined, "patterns", mined)) == base_text
        stats = backend.cache.stats()
        # The cache never silently grew ...
        assert stats["max_cached"] <= CACHE_GRAPHS
        # ... and no code path accumulated the whole database in memory:
        # the decoded-graph high-water stays at the budget (+ iteration
        # slack), far below the database size.
        assert stats["max_live"] <= CACHE_GRAPHS + LIVE_SLACK
        assert stats["max_live"] < NUM_GRAPHS
        # The run genuinely streamed: rows were re-read, not retained.
        assert stats["evictions"] > NUM_GRAPHS
    finally:
        backend.close()


def test_parallel_one_unit_over_the_store_matches_serial(tmp_path, database):
    """``mine -k 1 --parallel --backend sqlite`` is the one run whose unit
    database is the store itself: it ships to the worker as a graph list
    like every other unit, and writes serial ``mine -k 1``'s records."""
    from repro.cli import main

    source = tmp_path / "db.tve"
    write_database(database, source)
    records = []
    for extra in (
        [],
        ["--parallel", "--workers", "1", "--backend", "sqlite",
         "--db-path", str(tmp_path / "g.db")],
    ):
        out = tmp_path / f"out{len(records)}.jsonl"
        assert main([
            "mine", str(source), "6", "-k", "1", "--top", "0",
            "--output", str(out), *extra,
        ]) == 0
        records.append([
            line for line in out.read_text().splitlines()
            if '"kind": "pattern"' in line
        ])
    assert records[0] and records[1] == records[0]


# ----------------------------------------------------------------------
# The pass budget: how often a mine may decode the store-backed root
# ----------------------------------------------------------------------
#: PartMiner reads the root twice (the per-graph partition cascade, the
#: root merge-join's flat compile); merge-join's counting reads nothing.
#: One more |D| of slack keeps the bound about the access *pattern*:
#: the per-candidate fetches this guards against cost tens of |D|.
MISS_BOUND = 2 * NUM_GRAPHS + NUM_GRAPHS
TINY_CACHE = 4


def test_partminer_reads_the_root_in_sequential_passes(tmp_path, database):
    base_text = pattern_text(PartMiner(k=4).mine(database, 6).patterns)
    backend = stored(tmp_path, database, cache_graphs=TINY_CACHE)
    try:
        mined = PartMiner(k=4).mine(backend.database(), 6)
        assert pattern_text(mined.patterns) == base_text
        cache = backend.stats()["cache"]
        assert cache["misses"] <= MISS_BOUND
        assert cache["max_cached"] <= TINY_CACHE
        # The reference matcher fetches a graph per test by design: it
        # is held to the same output, not to the budget.
        with perf.disabled():
            reference = PartMiner(k=4).mine(backend.database(), 6)
        assert pattern_text(reference.patterns) == base_text
    finally:
        backend.close()


def test_single_unit_partminer_reads_the_root_like_gaston(tmp_path, database):
    """``k = 1`` has nothing to split and, with no ufreq, nothing to
    check: PartMiner decodes the root 2 x |D| times, as Gaston does."""
    reads = {}
    for name, miner in (("partminer", PartMiner(k=1)),
                        ("gaston", GastonMiner())):
        backend = stored(tmp_path, database, name=f"{name}.db",
                         cache_graphs=TINY_CACHE)
        try:
            miner.mine(backend.database(), 6)
            cache = backend.stats()["cache"]
            reads[name] = cache["hits"] + cache["misses"]
        finally:
            backend.close()
    assert reads == {"partminer": 2 * NUM_GRAPHS, "gaston": 2 * NUM_GRAPHS}


def test_merge_join_ignores_a_cache_over_a_store_backed_dataset(
    tmp_path, database
):
    """The staged pipeline with an explicit cache stays on the budget.

    An instance-keyed memo cannot be found again once the store evicts
    the decoded graph, so probing it would only buy a row decode per
    (candidate, graph) pair.
    """
    base_text = pattern_text(PartMiner(k=4).mine(database, 6).patterns)
    backend = stored(tmp_path, database, cache_graphs=TINY_CACHE)
    try:
        support_cache = perf.SupportCache()
        tree = db_partition(backend.database(), 4)
        results = {
            (unit.depth, unit.index): GastonMiner().mine(
                unit.database, resolve_unit_threshold(unit, 6, "paper", k=4)
            )
            for unit in tree.units()
        }

        def combine(node):
            if node.is_leaf:
                return results[(node.depth, node.index)]
            left, right = (combine(child) for child in node.children)
            return merge_join(
                node.database, left, right, node.support_threshold(6),
                support_cache=support_cache,
            )

        assert pattern_text(combine(tree.root)) == base_text
        assert backend.stats()["cache"]["misses"] <= MISS_BOUND
        # The two resident inner levels still used the cache they got.
        assert support_cache.stores > 0
    finally:
        backend.close()


def test_repeated_matches_over_a_store_decode_no_rows(tmp_path, database):
    """Once the store's FlatDB is current, serving ``match`` reads no row.

    The engine's support cache is keyed by graph instance; the store
    re-decodes evicted graphs as new instances, so probing it would cost
    a decode per candidate and find nothing — over a store it is
    bypassed, and no match holds more decoded graphs than the budget.
    """
    # Support 4 brings 3-edge patterns, which the index cannot decide:
    # they reach the search over the store.
    patterns = GSpanMiner().mine(database, 4)
    assert max(p.graph.num_edges for p in patterns) >= 3
    index = FragmentIndex.build(
        (p.graph for p in catalog_order(patterns)), database
    )
    backend = stored(tmp_path, database)
    try:
        engine = QueryEngine(
            CatalogSnapshot(1, patterns, index, {}), backend.database(),
            lru_size=0,  # every match searches
        )
        entries = engine.snapshot.entries
        engine.match(entries[0].graph)  # compiles the FlatDB: one pass
        misses = backend.cache.misses
        backend.cache.max_live = 0
        for _round in range(3):
            for entry in entries:
                engine.match(entry.graph)
        assert backend.cache.misses == misses
        assert backend.cache.max_live <= CACHE_GRAPHS
        assert engine.totals.searches > 0
        assert engine.support_cache.stores == 0
    finally:
        backend.close()


def test_incremental_reimport_touches_only_changed_rows(
    tmp_path, database
):
    backend = stored(tmp_path, database, "reimport.db")
    try:
        assert backend.import_database(database) == 0
        changed = database[3].copy()
        changed.set_vertex_label(0, 9)
        database_copy = database.copy()
        database_copy.replace(3, changed)
        assert backend.import_database(database_copy) == 1
    finally:
        backend.close()


def test_catalog_reload_from_disk_only(tmp_path, database):
    """A fresh backend over the same file serves the published catalog.

    The snapshot is a directory whichever backend holds the graphs; its
    index stamps graphs with the row shas, so reopening the store finds
    every graph fresh without decoding one.
    """
    patterns = GSpanMiner().mine(database, NUM_GRAPHS // 3)
    path = tmp_path / "persist.db"
    with open_backend(
        "sqlite", path, cache_graphs=CACHE_GRAPHS
    ) as backend:
        backend.import_database(database)
        published = PatternCatalog(tmp_path / "cat").publish(
            patterns, database=backend.database()
        )
        want = pattern_text(published.patterns)
    # Everything above is gone; reopen from bytes on disk alone.
    with open_backend(
        "sqlite", path, cache_graphs=CACHE_GRAPHS
    ) as backend:
        loaded = PatternCatalog(tmp_path / "cat").load()
        assert loaded.version == published.version
        assert pattern_text(loaded.patterns) == want
        misses = backend.cache.stats()["misses"]
        assert loaded.index.stale_gids(backend.database()) == set()
        assert backend.cache.stats()["misses"] == misses


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_serve_backend_sqlite_answers_like_memory(tmp_path, database):
    """`repro serve --backend sqlite` publishes a catalog that a fresh
    load over the reopened store serves exactly like the memory backend:
    same match / contains / top_k / coverage answers, and finding the
    stale graphs decodes none."""
    tve, store = tmp_path / "db.tve", tmp_path / "serve.db"
    write_database(database, tve)
    patterns_file = tmp_path / "patterns.jsonl"
    save_patterns(GSpanMiner().mine(database, NUM_GRAPHS // 3), patterns_file)
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(tmp_path / "cat"),
         str(tve), "--patterns", str(patterns_file), "--backend", "sqlite",
         "--db-path", str(store), "--graph-cache", str(CACHE_GRAPHS),
         "--port", str(free_port())],
        stdout=subprocess.PIPE, text=True, env=env,
        cwd=Path(__file__).resolve().parent.parent,
    )
    try:
        lines = []
        for line in serve.stdout:
            lines.append(line)
            if line.startswith("serving catalog v1"):
                break
        assert any(line.startswith("published snapshot v1") for line in lines)
    finally:
        serve.terminate()
        serve.communicate(timeout=60)
    assert serve.returncode == 0, lines

    patterns, _meta = read_patterns(patterns_file)
    memory_db = read_database(tve)
    want = QueryEngine(
        PatternCatalog(tmp_path / "memory").publish(
            patterns, database=memory_db
        ),
        memory_db,
    )
    with open_backend(
        "sqlite", store, cache_graphs=CACHE_GRAPHS
    ) as backend:
        view = backend.database()
        snapshot = PatternCatalog(tmp_path / "cat").load()
        misses = backend.cache.stats()["misses"]
        assert snapshot.index.stale_gids(view) == set()
        assert backend.cache.stats()["misses"] == misses
        got = QueryEngine(snapshot, view)
        assert got.stats_dict()["patterns"] == len(patterns)
        for entry in snapshot.entries:
            assert got.match(entry.graph).gids == (
                want.match(entry.graph).gids
            )
        for _gid, graph in memory_db:
            assert got.contains(graph).pids == want.contains(graph).pids
        for by in ("support", "size"):
            assert [e.pid for e in got.top_k(5, by=by)] == [
                e.pid for e in want.top_k(5, by=by)
            ]
        assert got.coverage() == want.coverage()
        # Every graph was fresh: the index kept exactly the candidates it
        # kept in memory.  (Searches differ: over the store the engine
        # bypasses its instance-keyed support cache for database graphs.)
        assert got.totals.candidates == want.totals.candidates
