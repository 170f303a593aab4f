"""One rep of one workload, in a process of its own.

Run as ``python child.py <job.json>``.  Every timed rep is a fresh
interpreter, so imports, the flat compile and every cache start cold — the
price each ``repro`` CLI user pays — and ``ru_maxrss`` belongs to this rep
alone.  The child measures itself: the timed interval accumulates wall time
and user+sys CPU of this process and its reaped descendants, and the result
is written to ``<job.json>.result`` when the child ends.

Untraced reps enter the program only through its stable public entry
points: ``repro.cli.main`` for the mining workloads, and for the other two
``IncrementalPartMiner``, the ``repro.updates.model`` operations,
``FragmentIndex.build``, ``CatalogSnapshot`` and ``QueryEngine`` (plus the
pattern-store and ``t/v/e`` readers and writers).  ``mode == "traced"`` hands
over to :mod:`stages`.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

LADDER_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(LADDER_DIR.parent.parent), str(LADDER_DIR.parent.parent / "src")]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Stopwatch:
    """Accumulates the timed interval; everything outside it is set-up."""

    def __init__(self) -> None:
        self.born = time.perf_counter()
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextlib.contextmanager
    def timed(self):
        wall, cpu = time.perf_counter(), _cpu_seconds()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - wall
            self.cpu_s += _cpu_seconds() - cpu

    def result(self) -> dict:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        lifetime = time.perf_counter() - self.born
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": max(own, kids) / 1024.0,  # Linux reports KiB
            "setup_s": max(0.0, lifetime - self.wall_s),
        }


class NoSpans:
    """What the untraced reps pass where the traced pass has a Tracer."""

    @contextlib.contextmanager
    def span(self, name):
        yield None


def cli_argv(job: dict) -> list[str]:
    """The ``repro`` command line of a mining workload."""
    p = job["params"]
    if job["kind"] == "big":
        return [
            "mine-big", job["db"], str(p["support"]),
            "--radius", str(p["radius"]), "--max-size", str(p["max_size"]),
            "-k", str(p["k"]), "--check-planted", job["planted"],
            "--output", job["out"],
        ]
    argv = ["mine", job["db"], str(p["support"]), "-k", str(p["k"]),
            "--output", job["out"]]
    if "workers" in p:
        argv += ["--parallel", "--workers", str(p["workers"])]
    if "graph_cache" in p and job["mode"] != "resident":
        argv += ["--backend", "sqlite", "--db-path", job["sqlite"],
                 "--graph-cache", str(p["graph_cache"])]
    return argv


def run_cli(job: dict, watch: Stopwatch) -> dict:
    """A mining rep: import and run the CLI, inputs on disk to dump."""
    with open(job["log"], "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), watch.timed():
        from repro import cli

        code = cli.main(cli_argv(job))
    return {"exit": code}


def run_inc(job: dict, watch: Stopwatch, tr=NoSpans(), after_batch=None) -> dict:
    """Three update batches through ``IncrementalPartMiner``.

    Set-up: parse, load the planned batches, ``initial_mine``.  Timed: each
    ``apply_updates`` and the final dump.  ``after_batch(miner, result)`` is
    the traced pass's hook; it runs outside the timed interval.
    """
    from repro.core.incremental import IncrementalPartMiner
    from repro.graph.io import read_database, write_database
    from repro.mining.store import save_patterns
    from repro.updates import model

    p = job["params"]
    database = read_database(job["db"])
    with open(job["updates"], encoding="utf-8") as fh:
        plan = json.load(fh)
    ufreq = {int(gid): tuple(f) for gid, f in plan["ufreq"].items()}
    miner = IncrementalPartMiner(k=p["k"])
    with tr.span("core.inc.initial_mine"):
        miner.initial_mine(database, p["support"], ufreq=ufreq)
    applied = 0
    for batch in plan["batches"]:
        updates = [
            getattr(model, fields.pop("op"))(**fields) for fields in batch
        ]
        with watch.timed(), tr.span("core.inc.apply"):
            result = miner.apply_updates(updates)
        applied += len(updates)
        if after_batch is not None:
            after_batch(miner, result)
    with watch.timed(), tr.span("mining.store.dump"):
        save_patterns(miner.current_patterns, job["out"], atomic=True)
    write_database(miner.database, job["post_db"])
    return {"exit": 0, "ops": applied}


def run_query(job: dict, watch: Stopwatch, tr=NoSpans()) -> dict:
    """The serving mix against a database the catalog was not mined from.

    Set-up: parse, load the catalog, ``FragmentIndex.build``, snapshot.
    Timed: engine construction, ``relocate()``, the ``contains`` stream,
    ``match`` of every pattern twice, ``top_k``, ``coverage()`` and
    writing the answers.
    """
    from repro.graph.io import read_database
    from repro.mining.store import read_patterns, save_patterns
    from repro.serve.catalog import CatalogSnapshot, catalog_order
    from repro.serve.engine import QueryEngine
    from repro.serve.index import FragmentIndex

    p = job["params"]
    database = read_database(job["db"])
    patterns, _meta = read_patterns(job["catalog"])
    with tr.span("serve.index_build"):
        index = FragmentIndex.build(
            (q.graph for q in catalog_order(patterns)), database
        )
        snapshot = CatalogSnapshot(1, patterns, index, {})
    plan = job["contains_gids"]
    latencies: dict[str, list[float]] = {"contains": [], "match": []}
    clock = time.perf_counter
    with watch.timed():
        engine = QueryEngine(snapshot, database)
        with tr.span("serve.relocate"):
            relocated = engine.relocate()
        contains: dict[str, list[int]] = {}
        with tr.span("serve.contains"):
            for gid in plan:
                start = clock()
                answer = engine.contains(database[gid])
                latencies["contains"].append(clock() - start)
                contains[str(gid)] = list(answer.pids)
        match: dict[str, list[int]] = {}
        with tr.span("serve.match"):
            for _round in range(2):
                for entry in snapshot.entries:
                    start = clock()
                    answer = engine.match(entry.graph)
                    latencies["match"].append(clock() - start)
                    match[str(entry.pid)] = sorted(answer.gids)
        with tr.span("serve.metadata"):
            top = [entry.pid for entry in engine.top_k(p["top_k"])]
            covered, _gids = engine.coverage()
        with tr.span("mining.store.dump"):
            save_patterns(relocated, job["out"], atomic=True)
            with open(job["answers"], "w", encoding="utf-8") as out:
                json.dump(
                    {"contains": contains, "match": match, "top_k": top,
                     "coverage": covered},
                    out, sort_keys=True,
                )
    ops = len(snapshot.entries) * 3 + len(plan) + 2
    return {"exit": 0, "ops": ops, "latencies": latencies, "engine": engine}


def main(argv: list[str]) -> int:
    job_path = argv[1]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    watch = Stopwatch()
    if job["mode"] == "traced":
        from benchmarks.ladder import stages

        outcome = stages.run(job, watch)
    elif job["kind"] == "inc":
        outcome = run_inc(job, watch)
    elif job["kind"] == "query":
        outcome = run_query(job, watch)
    else:
        outcome = run_cli(job, watch)
    result = watch.result()
    for key in ("exit", "ops", "traced"):
        if key in outcome:
            result[key] = outcome[key]
    with open(job_path + ".result", "w", encoding="utf-8") as out:
        json.dump(result, out)
    return outcome["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
