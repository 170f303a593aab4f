"""PartMiner: the paper's partition-based frequent graph miner (Fig 11).

Phase 1 divides the database into ``k`` units with :func:`db_partition`;
phase 2 mines every unit with a memory-based miner (Gaston by default, per
the paper) at the reduced threshold ``sup/k``, then recursively recombines
sibling results with :func:`merge_join` up the partition tree, finishing at
the root with the full support threshold.  Phase 2 is two methods,
:meth:`PartMiner._mine_units` and :meth:`PartMiner._combine`;
IncPartMiner (:mod:`repro.core.incremental`, Fig 12) re-runs both on the
part of the tree an update batch touched.

Timing follows the paper's Section 5.1.3 methodology: *aggregate* (serial)
time sums the per-unit and per-merge wall times; *parallel* time takes the
maximum within each tree level (units in one level are independent).  An
optional process pool actually runs units concurrently.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from .. import obs
from ..graph.database import GraphDatabase
from ..mining.base import PatternSet, mine_unit
from ..mining.gaston import GastonMiner
from ..partition.dbpartition import Partitioner, db_partition
from ..partition.graphpart import GraphPartitioner
from ..partition.units import PartitionNode, PartitionTree, UfreqMap
from .mergejoin import MergeDelta, MergeJoinStats, merge_join

MinerFactory = Callable[[], object]

UnitSupport = str | int  # 'paper' | 'exact' | absolute count


def resolve_unit_threshold(
    node: PartitionNode,
    root_threshold: int,
    unit_support: UnitSupport,
    k: int | None = None,
) -> int:
    """Absolute mining threshold for a unit (leaf) node.

    ``'paper'`` applies the paper's reduction ``sup/k`` (pass ``k``; when
    omitted the node's depth-based ``sup / 2^depth`` is used, which is the
    same thing for power-of-two ``k``); ``'exact'`` mines at support 1,
    guaranteeing lossless recovery at the cost of exhaustiveness; an int
    pins an absolute threshold.
    """
    if unit_support == "paper":
        if k is not None:
            return max(1, math.ceil(root_threshold / k))
        return node.support_threshold(root_threshold)
    if unit_support == "exact":
        return 1
    if isinstance(unit_support, int) and unit_support >= 1:
        return unit_support
    raise ValueError(f"invalid unit_support: {unit_support!r}")


@dataclass
class PartMinerResult:
    """Output of one PartMiner run, with the state reuse needs."""

    patterns: PatternSet
    tree: PartitionTree
    threshold: int
    node_results: dict[tuple[int, int], PatternSet]
    unit_times: list[float]
    merge_times: dict[tuple[int, int], float]
    merge_stats: dict[tuple[int, int], MergeJoinStats]
    partition_time: float = 0.0
    telemetry: object | None = None  # RunTelemetry when the runtime ran

    @property
    def unit_results(self) -> list[PatternSet]:
        """Each unit's patterns, in ``tree.units()`` order."""
        return [
            self.node_results[(unit.depth, unit.index)]
            for unit in self.tree.units()
        ]

    @property
    def aggregate_time(self) -> float:
        """Serial-mode time: everything summed (paper Section 5.1.3)."""
        return (
            self.partition_time
            + sum(self.unit_times)
            + sum(self.merge_times.values())
        )

    @property
    def parallel_time(self) -> float:
        """Parallel-mode time: max within each independent tree level."""
        by_level: dict[int, list[float]] = {}
        for unit, elapsed in zip(self.tree.units(), self.unit_times):
            by_level.setdefault(unit.depth, []).append(elapsed)
        unit_part = max(
            (max(times) for times in by_level.values()), default=0.0
        )
        merge_by_level: dict[int, list[float]] = {}
        for (depth, _index), elapsed in self.merge_times.items():
            merge_by_level.setdefault(depth, []).append(elapsed)
        merge_part = sum(
            max(times) for times in merge_by_level.values()
        )
        return self.partition_time + unit_part + merge_part


@dataclass
class PartMiner:
    """Partition-based graph miner (paper Fig 11).

    Parameters
    ----------
    k:
        Number of units the database is divided into.
    partitioner:
        Per-graph bi-partitioner (default: GraphPart with Partition3).
    miner_factory:
        Zero-argument callable building the memory-based unit miner
        (default: :class:`GastonMiner`, as in the paper).
    unit_support:
        Unit threshold strategy — ``'paper'``, ``'exact'`` or an absolute
        count (see :func:`resolve_unit_threshold`).
    strict_paper_joins:
        Forwarded to :func:`merge_join`.
    max_size:
        Optional bound on pattern size.
    runtime:
        ``None`` mines the units in-process.  A
        :class:`~repro.runtime.config.RuntimeConfig` mines them through
        the fault-tolerant runtime (:mod:`repro.runtime`) — the paper's
        "inherently parallel" execution, with per-attempt worker
        processes, timeouts, retries and graceful degradation.  Workers
        run the default Gaston unit miner; ``miner_factory`` is used for
        the in-process serial fallback.  Per-unit wall times come from
        runtime telemetry and the aggregate/parallel timing model still
        applies.
    run_dir:
        Checkpoint directory for the runtime.  Completed units are
        persisted here as they finish; re-running with the same directory
        resumes, skipping finished units.
    """

    k: int = 2
    partitioner: Partitioner | None = None
    miner_factory: MinerFactory = GastonMiner
    unit_support: UnitSupport = "paper"
    strict_paper_joins: bool = False
    max_size: int | None = None
    runtime: object | None = None  # RuntimeConfig
    run_dir: str | Path | None = None

    def mine(
        self,
        database: GraphDatabase,
        min_support: float | int,
        ufreq: UfreqMap | None = None,
    ) -> PartMinerResult:
        """Mine the full frequent pattern set of ``database``.

        ``ufreq`` supplies per-vertex update frequencies driving the
        partitioning criteria (zeros when omitted — pure connectivity).
        """
        return self._mine(
            database, database.absolute_support(min_support), ufreq
        )

    def _mine(
        self,
        database: GraphDatabase,
        threshold: int,
        ufreq: UfreqMap | None,
        keep_tree: bool = False,
    ) -> PartMinerResult:
        """:meth:`mine` at an absolute ``threshold``; ``keep_tree`` keeps
        every piece database (IncPartMiner's batches re-read them)."""
        with obs.span(
            "partminer.mine",
            k=self.k,
            threshold=threshold,
            graphs=len(database),
        ) as run_span:
            # Phase 1: partition the database into k units.
            t0 = time.perf_counter()
            partitioner = self.partitioner
            if partitioner is None:
                partitioner = GraphPartitioner()
            seeds_before = getattr(partitioner, "seeds_walked", 0)
            with obs.span("partminer.partition", k=self.k) as part_span:
                tree = db_partition(
                    database, self.k, ufreq=ufreq, partitioner=partitioner
                )
                part_span.set_attrs(
                    units=len(tree.units()),
                    seeds=getattr(partitioner, "seeds_walked", 0)
                    - seeds_before,
                    cut_edges=tree.total_connective_edges(),
                )
            partition_time = time.perf_counter() - t0

            # Phase 2a: mine the units.
            units = tree.units()
            with obs.span(
                "partminer.units", units=len(units),
                parallel=self.runtime is not None,
            ):
                unit_results, unit_times, telemetry = self._mine_units(
                    units, threshold, keep_tree
                )
            result = PartMinerResult(
                patterns=PatternSet(),
                tree=tree,
                threshold=threshold,
                node_results={
                    (unit.depth, unit.index): mined
                    for unit, mined in zip(units, unit_results)
                },
                unit_times=unit_times,
                merge_times={},
                merge_stats={},
                partition_time=partition_time,
                telemetry=telemetry,
            )

            # Phase 2b: recombine bottom-up along the tree.
            with obs.span("partminer.merge") as merge_span:
                result.patterns = self._combine(
                    tree.root, threshold, result, keep_tree=keep_tree
                )
                merge_span.set_attrs(
                    levels=len({depth for depth, _ in result.merge_times}),
                    patterns=len(result.patterns),
                )
            run_span.set_attrs(patterns=len(result.patterns))
        return result

    # ------------------------------------------------------------------
    def _mine_units(
        self,
        units: list[PartitionNode],
        root_threshold: int,
        keep_tree: bool = False,
    ) -> tuple[list[PatternSet], list[float], object | None]:
        """Mine ``units`` at their unit thresholds: each unit's patterns,
        its wall time, and the runtime's telemetry (``None`` when serial).

        Serially with one ``unit.mine`` span per unit, or, given a
        ``runtime``, through the fault-tolerant runtime, checkpointed into
        ``run_dir`` when one is set.  Unless ``keep_tree``, a mined unit's
        database is released: nothing reads it again.
        """
        thresholds = [
            resolve_unit_threshold(
                unit, root_threshold, self.unit_support, k=self.k
            )
            for unit in units
        ]
        if self.runtime is None:
            results, times = [], []
            for unit, threshold in zip(units, thresholds):
                t0 = time.perf_counter()
                with obs.span(
                    "unit.mine",
                    unit=unit.index,
                    depth=unit.depth,
                    threshold=threshold,
                ) as unit_span:
                    mined, pruned = mine_unit(
                        self.miner_factory,
                        unit.database,
                        threshold,
                        self.max_size,
                    )
                    unit_span.set_attrs(patterns=len(mined), **pruned)
                times.append(time.perf_counter() - t0)
                results.append(mined)
                if not keep_tree and unit.depth:  # the root is the caller's
                    unit.release()
            return results, times, None

        from ..runtime import CheckpointStore, run_unit_mining

        checkpoint = None
        if self.run_dir is not None:
            checkpoint = CheckpointStore(self.run_dir)
            checkpoint.open(
                {
                    "units": len(units),
                    "thresholds": thresholds,
                    "max_size": self.max_size,
                    "k": self.k,
                    "root_threshold": root_threshold,
                }
            )
        run = run_unit_mining(
            units,
            thresholds,
            max_size=self.max_size,
            config=self.runtime,
            checkpoint=checkpoint,
            miner_factory=self.miner_factory,
        )
        for unit in units:
            if not keep_tree and unit.depth:
                unit.release()
        times = [record.wall_time for record in run.telemetry.units]
        return run.unit_results, times, run.telemetry

    def _combine(
        self,
        node: PartitionNode,
        root_threshold: int,
        result: PartMinerResult,
        delta: Mapping[tuple[int, int], MergeDelta] | None = None,
        keep_tree: bool = False,
    ) -> PatternSet:
        """``node``'s patterns, merged bottom-up and recorded on ``result``
        with each merged level's time and work.  Unless ``keep_tree``, a
        non-root node's database (and the weakly keyed ``FlatDB`` compiled
        from it) is released once its merge has read it.

        ``delta`` makes the recursion Fig 12's IncMergeJoin.  It maps every
        node with an affected unit below it to the node's
        :class:`MergeDelta`.  A node it does not name keeps its previous
        result from ``result.node_results``.
        """
        key = (node.depth, node.index)
        if node.is_leaf or (delta is not None and key not in delta):
            return result.node_results[key]
        node_delta = delta[key] if delta else None
        left, right = (
            self._combine(child, root_threshold, result, delta, keep_tree)
            for child in node.children
        )
        threshold = node.support_threshold(root_threshold)
        stats = MergeJoinStats()
        t0 = time.perf_counter()
        with obs.span(
            "merge.level", level=node.depth, index=node.index
        ) as level_span:
            merged = merge_join(
                node.database,
                left,
                right,
                threshold,
                strict_paper_joins=self.strict_paper_joins,
                max_size=self.max_size,
                stats=stats,
                delta=node_delta,
            )
            level_span.set_attrs(patterns=len(merged), threshold=threshold)
            if node_delta is not None:
                level_span.set_attrs(
                    touched=len(node_delta.touched),
                    **node_delta.facts(merged, stats),
                )
        result.merge_times[key] = time.perf_counter() - t0
        result.merge_stats[key] = stats
        result.node_results[key] = merged
        if not keep_tree and node.depth:
            node.release()
        return merged
