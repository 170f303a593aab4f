"""Out-of-core storage: throughput overhead and peak-RSS boundedness.

Two figures of merit for the SQLite backend (DESIGN.md §14):

* **Mining throughput** — the same Gaston run over the in-memory
  database and over a stored database whose decoded-graph cache is a
  fraction of the database size.  The dumps must be byte-identical;
  the patterns/sec ratio is the price of streaming rows from disk.
* **Peak RSS** — a full-database scan executed in subprocesses, so
  ``ru_maxrss`` isolates each backend's residency: an interpreter
  *floor* child (imports the package, touches no data), a *memory*
  child (parses the whole ``.tve`` file), and a *sqlite* child (streams
  a read-only backend through a small cache).  Above the shared floor,
  the sqlite child's residency must not grow with the database — that
  is the process-level counterpart of the deterministic ``max_live``
  bound asserted in ``tests/test_storage_outofcore.py``.

Persists ``benchmarks/results/BENCH_storage.json`` plus the committed
repo-root copy (``BENCH_storage.json``) the CI storage-smoke job runs
against (``--quick`` shrinks both workloads; the RSS gate is only
enforced on full runs, where the data dwarfs allocator noise).
"""

import io
import json
import subprocess
import sys
import time
from pathlib import Path

from repro.datagen.synthetic import generate_dataset
from repro.graph.io import read_database, write_database
from repro.mining.gaston import GastonMiner
from repro.mining.store import dump_patterns
from repro.storage import open_backend

from .conftest import finish, run_once
from .figures import Experiment

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

MINE_DATASET = "D160T8N10L10I4"
MINE_DATASET_QUICK = "D60T8N10L10I4"
MINE_CACHE = 8

SCAN_DATASET = "D3000T25N15L30I4"
SCAN_DATASET_QUICK = "D800T25N15L30I4"
SCAN_CACHE = 64

#: The subprocess scan worker.  argv: src-path mode data-path cache.
#: Every mode reports its peak RSS; data modes also fold a
#: backend-independent digest over the full adjacency structure, which
#: is the identity gate between the memory and sqlite scans.
CHILD = """\
import hashlib, json, resource, sys
sys.path.insert(0, sys.argv[1])

def peak_rss_kb():
    # Linux keeps ru_maxrss across exec (it lives in signal_struct), so
    # a child forked from a fat parent inherits its high-water; VmHWM
    # belongs to the mm, which exec replaces, so it measures *us*.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

mode, path, cache = sys.argv[2], sys.argv[3], int(sys.argv[4])
h = hashlib.sha256()
edges = 0
if mode == "floor":
    import repro.storage  # the shared import cost, no data
elif mode == "memory":
    from repro.graph.io import read_database
    items = read_database(path)
else:
    from repro.storage import open_backend
    backend = open_backend(
        "sqlite", path, cache_graphs=cache, read_only=True
    )
    items = backend.database()
if mode != "floor":
    for gid, graph in items:
        edges += graph.num_edges
        for v in graph.vertices():
            h.update(
                repr(
                    (
                        gid,
                        v,
                        graph.vertex_label(v),
                        list(graph.neighbors(v)),
                    )
                ).encode()
            )
print(
    json.dumps(
        {"rss_kb": peak_rss_kb(), "edges": edges, "digest": h.hexdigest()}
    )
)
"""


def scan_child(mode, path, cache):
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), mode, str(path), str(cache)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (mode, result.stderr)
    return json.loads(result.stdout)


def pattern_text(patterns):
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


def test_storage_out_of_core(benchmark, quick, tmp_path):
    mine_spec = MINE_DATASET_QUICK if quick else MINE_DATASET
    scan_spec = SCAN_DATASET_QUICK if quick else SCAN_DATASET

    def sweep():
        exp = Experiment(
            "BENCH_storage",
            f"Out-of-core storage (mine {mine_spec}, scan {scan_spec})",
            "backend (0=memory, 1=sqlite)",
            "value",
        )
        mine_rate = exp.new_series("mining patterns/sec")
        scan_rss = exp.new_series("scan peak RSS (MB)")

        # -- Mining throughput, identical bytes ------------------------
        db = generate_dataset(mine_spec, seed=21)
        minsup = max(2, len(db) // 5)
        t0 = time.perf_counter()
        base = GastonMiner().mine(db, minsup)
        memory_elapsed = time.perf_counter() - t0
        base_text = pattern_text(base)
        with open_backend(
            "sqlite", tmp_path / "mine.db", cache_graphs=MINE_CACHE
        ) as backend:
            backend.import_database(db)
            backend.cache.clear()
            t0 = time.perf_counter()
            stored = GastonMiner().mine(backend.database(), minsup)
            sqlite_elapsed = time.perf_counter() - t0
            assert pattern_text(stored) == base_text
            cache_stats = backend.cache.stats()
        assert cache_stats["max_cached"] <= MINE_CACHE
        mine_rate.add(0, len(base) / memory_elapsed)
        mine_rate.add(1, len(base) / sqlite_elapsed)
        overhead = sqlite_elapsed / memory_elapsed
        exp.notes["mining"] = {
            "dataset": mine_spec,
            "minsup": minsup,
            "patterns": len(base),
            "graph_cache": MINE_CACHE,
            "memory_elapsed": round(memory_elapsed, 4),
            "sqlite_elapsed": round(sqlite_elapsed, 4),
            "sqlite_overhead": round(overhead, 3),
            "cache": cache_stats,
        }

        # -- Peak RSS of a full scan, out of process -------------------
        tve = tmp_path / "scan.tve"
        write_database(generate_dataset(scan_spec, seed=22), tve)
        # Import from the .tve round-trip, not the generator's object:
        # the writer normalizes edge order, and both children must see
        # the same adjacency order for the digest gate to mean identity.
        scan_db = read_database(tve)
        store = tmp_path / "scan.db"
        with open_backend(
            "sqlite", store, cache_graphs=SCAN_CACHE
        ) as backend:
            backend.import_database(scan_db)
        del scan_db

        floor = scan_child("floor", tve, SCAN_CACHE)
        memory = scan_child("memory", tve, SCAN_CACHE)
        sqlite = scan_child("sqlite", store, SCAN_CACHE)
        assert memory["digest"] == sqlite["digest"]
        assert memory["edges"] == sqlite["edges"] > 0
        scan_rss.add(0, memory["rss_kb"] / 1024)
        scan_rss.add(1, sqlite["rss_kb"] / 1024)
        memory_delta = memory["rss_kb"] - floor["rss_kb"]
        sqlite_delta = sqlite["rss_kb"] - floor["rss_kb"]
        with open_backend("sqlite", store, read_only=True) as backend:
            graphs_scanned = backend.num_graphs()
        exp.notes["scan"] = {
            "dataset": scan_spec,
            "graphs_scanned": graphs_scanned,
            "graph_cache": SCAN_CACHE,
            "floor_rss_kb": floor["rss_kb"],
            "memory_rss_kb": memory["rss_kb"],
            "sqlite_rss_kb": sqlite["rss_kb"],
            "memory_delta_kb": memory_delta,
            "sqlite_delta_kb": sqlite_delta,
            "rss_ratio": round(
                sqlite_delta / max(1, memory_delta), 3
            ),
        }
        exp.notes["quick"] = quick
        return exp

    exp = run_once(benchmark, sweep)
    finish(exp)
    exp.save(REPO_ROOT)  # the committed CI reference copy

    scan = exp.notes["scan"]
    if not quick:
        # Full run: the database is tens of MB decoded, so residency
        # above the interpreter floor is signal, not allocator noise.
        # Streaming through a 64-graph cache must hold strictly less
        # than parsing the whole database into dicts.
        assert scan["sqlite_delta_kb"] < scan["memory_delta_kb"], scan
    assert exp.notes["mining"]["cache"]["max_cached"] <= MINE_CACHE
