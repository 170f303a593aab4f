"""A pattern warehouse: persist, reload, validate, and update results.

A production deployment of an incremental miner needs its state to
outlive the process: the pattern sets (with TID lists) are saved after
every session and validated on reload.  This example walks that whole
lifecycle:

1. mine a database, persist the result (JSON-lines pattern store);
2. "restart": reload, validate supports + Apriori closure;
3. run an update session on top of the reloaded state and persist again.

Run:  python examples/pattern_warehouse.py
"""

import tempfile
import time
from pathlib import Path

from repro import (
    GastonMiner,
    IncrementalPartMiner,
    UpdateGenerator,
    generate_dataset,
    hot_vertex_assignment,
    read_patterns,
    save_patterns,
    validate,
)
from repro.graph import io as graph_io

MINSUP = 0.08


def main() -> None:
    warehouse = Path(tempfile.mkdtemp(prefix="pattern-warehouse-"))
    print(f"warehouse directory: {warehouse}")

    # --- session 1: mine and persist -----------------------------------
    database = generate_dataset("D80T12N10L20I4", seed=47)
    graph_io.write_database(database, warehouse / "database.tve")
    patterns = GastonMiner().mine(database, MINSUP)
    save_patterns(
        patterns,
        warehouse / "patterns.jsonl",
        meta={"dataset": "D80T12N10L20I4", "minsup": MINSUP},
    )
    print(f"session 1: mined and saved {len(patterns)} patterns")

    # --- session 2: reload and trust-but-verify -------------------------
    database = graph_io.read_database(warehouse / "database.tve")
    reloaded, meta = read_patterns(warehouse / "patterns.jsonl")
    print(f"session 2: reloaded {len(reloaded)} patterns "
          f"(mined at minsup={meta['minsup']})")
    report = validate(reloaded, database)
    print(f"validation: {report.summary()}")
    assert report.ok

    # --- session 3: updates land on the warehouse -----------------------
    ufreq = hot_vertex_assignment(database, 0.2, seed=3)
    miner = IncrementalPartMiner(k=2)
    miner.initial_mine(database, MINSUP, ufreq=ufreq)
    updates = UpdateGenerator(10, 10, seed=4).generate(
        miner.database, miner.ufreq, 0.3, 2, "mixed"
    )
    start = time.perf_counter()
    result = miner.apply_updates(updates)
    print(
        f"session 3: {len(updates)} updates in "
        f"{time.perf_counter() - start:.2f}s — "
        f"UF={len(result.unchanged)} FI={len(result.became_infrequent)} "
        f"IF={len(result.became_frequent)}"
    )
    graph_io.write_database(miner.database, warehouse / "database.tve")
    save_patterns(
        result.patterns,
        warehouse / "patterns.jsonl",
        meta={"dataset": "D80T12N10L20I4", "minsup": MINSUP,
              "epochs": 1},
    )
    print(f"warehouse updated; contents: "
          f"{sorted(p.name for p in warehouse.iterdir())}")


if __name__ == "__main__":
    main()
