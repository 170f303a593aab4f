"""PartMiner's inherent parallelism: mine partition units in real processes.

The paper notes (Section 1) that PartMiner "is inherently parallel in
nature": after DBPartition, the k units are independent mining problems.
This example partitions a database into k units, mines them three ways —

1. serially (the aggregate-time mode of Section 5.1.3),
2. in a real process pool,
3. and reports the paper's modeled parallel time (max over unit times) —

then merge-joins the unit results into the final answer and verifies it
against direct mining.

Run:  python examples/parallel_units.py
"""

import time

from repro import GSpanMiner, GastonMiner, generate_dataset, merge_join
from repro.core.partminer import resolve_unit_threshold
from repro.partition.dbpartition import db_partition
from repro.runtime import run_unit_mining

K = 4
MINSUP = 0.06


def main() -> None:
    database = generate_dataset("D120T12N12L25I5", seed=37)
    threshold = database.absolute_support(MINSUP)
    print(f"database: {len(database)} graphs; minsup {MINSUP} "
          f"(support >= {threshold})")

    tree = db_partition(database, K)
    units = tree.units()
    thresholds = [
        resolve_unit_threshold(unit, threshold, "paper") for unit in units
    ]
    print(f"partitioned into {K} units "
          f"({tree.total_connective_edges()} connective edges); "
          f"unit thresholds {thresholds}")

    # --- serial ------------------------------------------------------
    start = time.perf_counter()
    serial_results = []
    unit_times = []
    for unit, unit_threshold in zip(units, thresholds):
        t0 = time.perf_counter()
        serial_results.append(
            GastonMiner().mine(unit.database, unit_threshold)
        )
        unit_times.append(time.perf_counter() - t0)
    serial_time = time.perf_counter() - start
    print(f"\nserial unit mining:   {serial_time:.2f}s "
          f"(modeled parallel: {max(unit_times):.2f}s)")

    # --- real process pool -------------------------------------------
    start = time.perf_counter()
    pool_results = run_unit_mining(units, thresholds).unit_results
    pool_time = time.perf_counter() - start
    print(f"process-pool mining:  {pool_time:.2f}s "
          f"({K} workers, includes spawn overhead)")
    for serial, pooled in zip(serial_results, pool_results):
        assert serial.keys() == pooled.keys()

    # --- recombine along the tree -------------------------------------
    start = time.perf_counter()
    by_node = {
        (unit.depth, unit.index): result
        for unit, result in zip(units, pool_results)
    }

    def combine(node):
        if node.is_leaf:
            return by_node[(node.depth, node.index)]
        left = combine(node.children[0])
        right = combine(node.children[1])
        return merge_join(
            node.database, left, right,
            node.support_threshold(threshold),
        )

    patterns = combine(tree.root)
    merge_time = time.perf_counter() - start
    print(f"merge-join:           {merge_time:.2f}s "
          f"-> {len(patterns)} frequent patterns")

    truth = GSpanMiner().mine(database, threshold)
    recall = len(patterns.keys() & truth.keys()) / len(truth)
    print(f"\nrecall vs direct mining: {recall:.3f} "
          f"(false positives: {len(patterns.keys() - truth.keys())})")


if __name__ == "__main__":
    main()
