#!/usr/bin/env python
"""Truncation/bit-flip fuzz over every durable artifact loader.

For each artifact kind the pipeline persists (pattern store, fragment
index, catalog snapshot and its index, checkpoint unit, trace), write a good copy, then hammer it with byte-level damage —
truncation at every cut fraction and single-bit flips at seeded
positions — and load it.  The contract under test (DESIGN.md §10):

* the loader either returns a result **identical** to the pristine one
  (damage hit redundant bytes, e.g. trailing newline), or raises a typed
  error (`ArtifactCorrupt` / `ValueError`);
* it never returns garbage — a "successful" load whose content differs
  from the original is a FUZZ FAILURE and exits 1.

Usage::

    PYTHONPATH=src python scripts/truncation_fuzz.py [--seed N] [--flips K]
"""

from __future__ import annotations

import argparse
import io
import random
import shutil
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.core.partminer import PartMiner
from repro.mining.gspan import GSpanMiner
from repro.mining.store import dump_patterns, read_patterns, save_patterns
from repro.obs import trace as obs_trace
from repro.runtime.checkpoint import CheckpointStore
from repro.serve.catalog import PatternCatalog
from repro.serve.index import FragmentIndex


def random_database(seed, num_graphs=6, n=5):
    from repro.graph.database import GraphDatabase
    from repro.graph.labeled_graph import LabeledGraph

    rng = random.Random(seed)
    graphs = []
    for gid in range(num_graphs):
        graph = LabeledGraph()
        for _ in range(n):
            graph.add_vertex(rng.randrange(3))
        for v in range(1, n):
            graph.add_edge(v, rng.randrange(v), rng.randrange(2))
        graphs.append((gid, graph))
    return GraphDatabase(graphs)


def pattern_text(patterns):
    buffer = io.StringIO()
    dump_patterns(patterns, buffer)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Artifact kinds: (name, write(dir) -> path, load(path) -> comparable)
# ----------------------------------------------------------------------
def build_targets(seed):
    db = random_database(seed)
    patterns = GSpanMiner().mine(db, 3)

    def write_store(workdir):
        path = workdir / "patterns.jsonl"
        save_patterns(patterns, path, atomic=True)
        return path

    def load_store(path):
        loaded, _ = read_patterns(path)
        return pattern_text(loaded)

    def write_index(workdir):
        path = workdir / "index.json"
        FragmentIndex.build(
            (p.graph for p in patterns), db
        ).save(path)
        return path

    def load_index(path):
        index = FragmentIndex.load(path)
        return repr(index.to_dict())

    def write_checkpoint(workdir):
        return CheckpointStore(workdir / "run").save(0, patterns)

    def load_checkpoint(path):
        return pattern_text(CheckpointStore(path.parent.parent).load(0))

    tracer = obs.Tracer()
    with obs_trace.tracing(tracer):
        PartMiner(k=2).mine(db, 3)

    def write_trace(workdir):
        return tracer.save(workdir / "trace.jsonl")

    def load_trace(path):
        return repr(obs.load_spans(path))

    def snapshot_writer(name):
        # Damage one file of a published snapshot: its pattern store or
        # its digest-stamped fragment index.
        def write_snapshot(workdir):
            PatternCatalog(workdir / "catalog").publish(patterns, database=db)
            return workdir / "catalog" / "snapshot-000001" / name

        return write_snapshot

    def load_catalog(path):
        snapshot = PatternCatalog(path.parent.parent).load(fallback=False)
        served = snapshot.index.stale_gids(db)
        return pattern_text(snapshot.patterns) + repr(
            (snapshot.index.to_dict(), sorted(served))
        )

    return [
        ("pattern-store", write_store, load_store),
        ("fragment-index", write_index, load_index),
        ("checkpoint-unit", write_checkpoint, load_checkpoint),
        ("trace", write_trace, load_trace),
        ("catalog-snapshot", snapshot_writer("patterns.jsonl"), load_catalog),
        ("catalog-index", snapshot_writer("index.json"), load_catalog),
    ]


def fuzz_one(name, write, load, seed, flips):
    rng = random.Random(seed)
    failures = []
    trials = 0
    detected = 0

    with tempfile.TemporaryDirectory() as tmp:
        pristine_dir = Path(tmp) / "pristine"
        pristine_dir.mkdir()
        path = write(pristine_dir)
        good_bytes = path.read_bytes()
        baseline = load(path)

        # Reload after a clean load (quarantine must not have fired).
        assert path.exists(), f"{name}: clean load quarantined the file"

        cuts = sorted({
            int(len(good_bytes) * f / 20) for f in range(20)
        })
        flip_positions = [
            rng.randrange(len(good_bytes)) for _ in range(flips)
        ]
        damages = [("truncate", c) for c in cuts] + [
            ("bitflip", p) for p in flip_positions
        ]

        for kind, position in damages:
            trials += 1
            workdir = Path(tmp) / f"trial-{trials}"
            shutil.copytree(pristine_dir, workdir)
            target = workdir / path.relative_to(pristine_dir)
            if kind == "truncate":
                target.write_bytes(good_bytes[:position])
            else:
                mutated = bytearray(good_bytes)
                mutated[position] ^= 1 << rng.randrange(8)
                target.write_bytes(bytes(mutated))
            try:
                result = load(target)
            except Exception as exc:  # noqa: BLE001 - typed check below
                detected += 1
                if not isinstance(exc, (ValueError, Warning, KeyError)):
                    failures.append(
                        f"{name} {kind}@{position}: untyped "
                        f"{type(exc).__name__}: {exc}"
                    )
                continue
            if result != baseline:
                failures.append(
                    f"{name} {kind}@{position}: SILENT CORRUPTION — "
                    f"loader returned different content without error"
                )

    print(
        f"  {name:18s} {trials:3d} trials, {detected:3d} detected, "
        f"{trials - detected - len(failures):2d} harmless, "
        f"{len(failures)} failures"
    )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flips", type=int, default=20,
                        help="bit-flip trials per artifact")
    args = parser.parse_args(argv)

    print(f"truncation fuzz (seed={args.seed}, flips={args.flips})")
    failures = []
    for name, write, load in build_targets(args.seed):
        failures.extend(fuzz_one(name, write, load, args.seed, args.flips))
    if failures:
        print(f"\n{len(failures)} FUZZ FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("all loaders detected or survived every damage pattern")
    return 0


if __name__ == "__main__":
    sys.exit(main())
