"""IncPartMiner: incremental mining under database updates (paper, Fig 12).

After an initial PartMiner run, an update batch is handled as follows:

1. apply the updates to copies of the touched graphs — a batch that fails
   half-way leaves the miner exactly as it was — swap them in and
   re-partition **only the updated graphs** through the existing tree;
2. re-mine only the *affected units* — leaves whose piece of an updated
   graph changed (the paper's ``setword``) — with the memory-based miner;
3. re-merge bottom-up, at every internal node with an affected unit below
   it, by **delta counting** (``IncMergeJoin``): the set ``U`` of graphs
   whose piece changed at the node is known and every other graph is the
   graph it was, so an old pattern's TID list becomes
   ``(tids - U) | {g in U : P in g}`` — ``|U|`` searches per pattern, exact
   by construction — and a generator pair the node had already joined is
   joined again only where a graph of ``U`` gained an edge its candidates
   could use (see :class:`~repro.core.mergejoin.MergeDelta`);
4. classify every pattern into **UF** (unchanged), **FI** (frequent ->
   infrequent) and **IF** (infrequent -> frequent).

Every support in the result is counted or delta-counted against the
current database; nothing is vouched for.  This deviates from Fig 12 lines
1-10 on purpose: the paper's prune set ``P`` and its ``P(D)'`` of patterns
"treated as still frequent" are subsumed by the recount (a supergraph of a
lost pattern simply recounts below the threshold), which makes the result
exact where the paper's is a heuristic: with ``unit_support='exact'`` it is
what mining the updated database from scratch returns, and at the paper's
reduced unit threshold it contains everything a from-scratch
:class:`PartMiner` over the same partition finds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import obs
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..graph.database import GraphDatabase
from ..mining.base import PatternSet
from ..mining.edges import normalize_triple
from ..mining.gaston import GastonMiner
from ..partition.dbpartition import Partitioner
from ..partition.graphpart import GraphPartitioner
from ..partition.units import PartitionNode, UfreqMap
from ..updates.model import Update, apply_updates
from .mergejoin import MergeDelta, MergeJoinStats, merge_join
from .partminer import (
    MinerFactory,
    PartMiner,
    PartMinerResult,
    UnitSupport,
    resolve_unit_threshold,
)

NodeKey = tuple[int, int]


def _key(node: PartitionNode) -> NodeKey:
    return (node.depth, node.index)


@dataclass
class IncrementalStats:
    """Work counters of one incremental step."""

    updated_graphs: int = 0
    affected_units: int = 0
    changed_piece_pairs: int = 0  # (unit, gid) pairs whose piece changed
    units_remined: int = 0
    repartition_time: float = 0.0
    remine_time: float = 0.0
    remine_times: list[float] = field(default_factory=list)
    merge_time: float = 0.0
    # Per re-merged internal node: wall time and work counters.
    merge_times: dict[NodeKey, float] = field(default_factory=dict)
    merge_stats: dict[NodeKey, MergeJoinStats] = field(default_factory=dict)
    classify_time: float = 0.0
    runtime_telemetry: object | None = None  # RunTelemetry (runtime remine)

    @property
    def known_reused(self) -> int:
        """Old node-level patterns whose support the recount carried over."""
        return sum(s.known_reused for s in self.merge_stats.values())

    @property
    def total_time(self) -> float:
        return (
            self.repartition_time
            + self.remine_time
            + self.merge_time
            + self.classify_time
        )

    @property
    def parallel_time(self) -> float:
        """Parallel-mode analogue: affected units re-mine concurrently."""
        return (
            self.repartition_time
            + (max(self.remine_times) if self.remine_times else 0.0)
            + self.merge_time
            + self.classify_time
        )


@dataclass
class IncrementalResult:
    """Output of one update batch: the new result and the 3 pattern classes."""

    patterns: PatternSet
    unchanged: PatternSet  # UF
    became_infrequent: PatternSet  # FI
    became_frequent: PatternSet  # IF
    stats: IncrementalStats


def _piece_elements(node: PartitionNode, gid: int) -> tuple[dict, dict]:
    """A node's piece of one graph in root vertex ids: edge -> label triple
    and vertex -> label.  Two pieces with equal elements are one graph."""
    piece = node.database[gid]
    orig = node.orig_vertices[gid]
    edges = {}
    for u, v, label in piece.edges():
        ends = (min(orig[u], orig[v]), max(orig[u], orig[v]), label)
        edges[ends] = normalize_triple(
            piece.vertex_label(u), label, piece.vertex_label(v)
        )
    vertices = {orig[v]: piece.vertex_label(v) for v in piece.vertices()}
    return edges, vertices


def _new_edge_triples(before: tuple, after: tuple) -> frozenset | None:
    """Label triples of the edges a piece gained: added, re-labelled, or at
    a new or re-labelled vertex.  ``None`` when the piece did not change.

    Any occurrence of a pattern the new piece has and the old one lacked
    covers a changed element, and — patterns being connected — an edge
    that is new or ends at a changed vertex.
    """
    (old_edges, old_vertices), (edges, vertices) = before, after
    if old_edges == edges and old_vertices == vertices:
        return None
    moved = {
        v for v, label in vertices.items()
        if v not in old_vertices or old_vertices[v] != label
    }
    return frozenset(
        triple
        for ends, triple in edges.items()
        if ends not in old_edges or ends[0] in moved or ends[1] in moved
    )


class IncrementalPartMiner:
    """PartMiner with incremental update handling (paper Fig 12).

    Construct, call :meth:`initial_mine` once, then :meth:`apply_updates`
    for every batch.  The miner owns a private copy of the database.
    """

    def __init__(
        self,
        k: int = 2,
        partitioner: Partitioner | None = None,
        miner_factory: MinerFactory = GastonMiner,
        unit_support: UnitSupport = "paper",
        strict_paper_joins: bool = False,
        max_size: int | None = None,
        runtime: object | None = None,
    ) -> None:
        """``runtime`` (a :class:`~repro.runtime.config.RuntimeConfig`)
        re-mines affected units through the fault-tolerant parallel
        runtime instead of in-process, recording execution telemetry on
        ``stats.runtime_telemetry``."""
        self.k = k
        self.partitioner = (
            partitioner if partitioner is not None else GraphPartitioner()
        )
        self.miner_factory = miner_factory
        self.unit_support = unit_support
        self.strict_paper_joins = strict_paper_joins
        self.max_size = max_size
        self.runtime = runtime
        self._database: GraphDatabase | None = None
        self._ufreq: UfreqMap | None = None
        self._result: PartMinerResult | None = None
        self._threshold: int | None = None

    # ------------------------------------------------------------------
    @property
    def database(self) -> GraphDatabase:
        if self._database is None:
            raise RuntimeError("call initial_mine() first")
        return self._database

    @property
    def current_patterns(self) -> PatternSet:
        if self._result is None:
            raise RuntimeError("call initial_mine() first")
        return self._result.patterns

    @property
    def ufreq(self) -> UfreqMap:
        """The maintained update-frequency map (padded for added vertices)."""
        if self._ufreq is None:
            raise RuntimeError("call initial_mine() first")
        return self._ufreq

    # ------------------------------------------------------------------
    def initial_mine(
        self,
        database: GraphDatabase,
        min_support: float | int,
        ufreq: UfreqMap | None = None,
    ) -> PartMinerResult:
        """Run PartMiner once and keep the state updates will build on."""
        self._database = database.copy(deep=True)
        if ufreq is None:
            ufreq = {
                gid: (0.0,) * graph.num_vertices
                for gid, graph in self._database
            }
        self._ufreq = dict(ufreq)
        self._threshold = self._database.absolute_support(min_support)
        miner = PartMiner(
            k=self.k,
            partitioner=self.partitioner,
            miner_factory=self.miner_factory,
            unit_support=self.unit_support,
            strict_paper_joins=self.strict_paper_joins,
            max_size=self.max_size,
        )
        self._result = miner.mine(
            self._database, self._threshold, ufreq=self._ufreq
        )
        return self._result

    # ------------------------------------------------------------------
    def apply_updates(self, updates: list[Update]) -> IncrementalResult:
        """Process one update batch incrementally.

        The batch is applied to copies of the graphs it touches and
        swapped in only once every update went through: an invalid update
        raises the error :func:`~repro.updates.model.apply_update` raises
        and leaves the miner as it was before the call.
        """
        if self._result is None or self._database is None:
            raise RuntimeError("call initial_mine() first")
        t_start = time.perf_counter()
        with obs.span(
            "inc.apply_updates", updates=len(updates)
        ) as root_span:
            staged = GraphDatabase()
            for update in updates:
                if update.gid not in staged:
                    staged.add(update.gid, self._database[update.gid].copy())
            apply_updates(staged, updates)
            result = self._apply_staged(staged)
            root_span.set_attrs(
                uf=len(result.unchanged),
                fi=len(result.became_infrequent),
                if_=len(result.became_frequent),
                affected_units=result.stats.affected_units,
            )
        obs_metrics.observe_phase(
            "inc_apply_updates", time.perf_counter() - t_start
        )
        return result

    def _apply_staged(self, staged: GraphDatabase) -> IncrementalResult:
        old = self._result
        tree = old.tree
        threshold = self._threshold
        stats = IncrementalStats(updated_graphs=len(staged))

        # --- step 1: swap in the updated graphs, re-partition them -------
        step = obs_trace.begin("inc.repartition")
        t0 = time.perf_counter()
        nodes = list(tree.nodes())
        before = {
            (_key(node), gid): _piece_elements(node, gid)
            for node in nodes
            for gid in staged.gids()
        }
        for gid, graph in staged:
            self._database.replace(gid, graph)
            self._pad_ufreq(gid)
            self._repartition_graph(tree.root, gid)
        # Per node: the gids whose piece changed there, each with the
        # label triples of the edges its new piece gained.
        touched: dict[NodeKey, dict[int, frozenset]] = {
            _key(node): {} for node in nodes
        }
        for node in nodes:
            for gid in staged.gids():
                gained = _new_edge_triples(
                    before[(_key(node), gid)], _piece_elements(node, gid)
                )
                if gained is not None:
                    touched[_key(node)][gid] = gained
        units = tree.units()
        affected = [
            i for i, unit in enumerate(units) if touched[_key(unit)]
        ]
        stats.affected_units = stats.units_remined = len(affected)
        stats.changed_piece_pairs = sum(
            len(touched[_key(units[i])]) for i in affected
        )
        stats.repartition_time = time.perf_counter() - t0
        step.set_attrs(
            updated_graphs=stats.updated_graphs,
            affected_units=stats.affected_units,
        )
        obs_trace.finish(step)

        # --- step 2: re-mine affected units ------------------------------
        step = obs_trace.begin("inc.remine")
        new_unit_results = list(old.unit_results)
        unit_times = [0.0] * len(units)
        thresholds = {
            i: resolve_unit_threshold(
                units[i], threshold, self.unit_support, k=self.k
            )
            for i in affected
        }
        if self.runtime is not None and affected:
            # Through the fault-tolerant runtime: only the affected units
            # are dispatched, each with timeout/retry/degradation
            # protection, and the run's telemetry lands on the stats.
            from ..runtime import run_unit_mining

            run = run_unit_mining(
                [units[i] for i in affected],
                [thresholds[i] for i in affected],
                max_size=self.max_size,
                config=self.runtime,
                miner_factory=self.miner_factory,
            )
            stats.runtime_telemetry = run.telemetry
            for i, mined, record in zip(
                affected, run.unit_results, run.telemetry.units
            ):
                new_unit_results[i] = mined
                unit_times[i] = record.wall_time
        else:
            for i in affected:
                t0 = time.perf_counter()
                miner = self.miner_factory()
                if self.max_size is not None and hasattr(miner, "max_size"):
                    miner.max_size = self.max_size
                new_unit_results[i] = miner.mine(
                    units[i].database, thresholds[i]
                )
                unit_times[i] = time.perf_counter() - t0
        stats.remine_times = [unit_times[i] for i in affected]
        stats.remine_time = sum(stats.remine_times)
        step.set_attrs(units_remined=stats.units_remined)
        obs_trace.finish(step)

        # --- step 3: delta merge-join, bottom-up --------------------------
        step = obs_trace.begin("inc.merge")
        t0 = time.perf_counter()
        node_results = dict(old.node_results)
        for unit, mined in zip(units, new_unit_results):
            node_results[_key(unit)] = mined
        totals: dict[str, int] = {}
        new_patterns = self._merge(
            tree.root, old, node_results, touched, stats, totals
        )
        stats.merge_time = time.perf_counter() - t0
        step.set_attrs(nodes=len(stats.merge_stats), **totals)
        obs_trace.finish(step)

        # --- step 4: classification ---------------------------------------
        step = obs_trace.begin("inc.classify")
        t0 = time.perf_counter()
        unchanged = PatternSet(
            p for p in new_patterns if p.key in old.patterns
        )
        became_frequent = PatternSet(
            p for p in new_patterns if p.key not in old.patterns
        )
        became_infrequent = PatternSet(
            p for p in old.patterns if p.key not in new_patterns
        )
        stats.classify_time = time.perf_counter() - t0
        step.set_attrs(
            uf=len(unchanged),
            fi=len(became_infrequent),
            if_=len(became_frequent),
        )
        obs_trace.finish(step)

        # Commit the new state; its run facts are this batch's own.
        self._result = PartMinerResult(
            patterns=new_patterns,
            tree=tree,
            threshold=threshold,
            unit_results=new_unit_results,
            node_results=node_results,
            unit_times=unit_times,
            merge_times=stats.merge_times,
            merge_stats=stats.merge_stats,
            partition_time=stats.repartition_time,
        )
        return IncrementalResult(
            patterns=new_patterns,
            unchanged=unchanged,
            became_infrequent=became_infrequent,
            became_frequent=became_frequent,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _pad_ufreq(self, gid: int) -> None:
        """Extend a graph's ufreq for vertices added by the batch."""
        graph = self._database[gid]
        current = self._ufreq.get(gid, ())
        if len(current) < graph.num_vertices:
            # Freshly added vertices were just updated: treat them as hot.
            pad = (0.5,) * (graph.num_vertices - len(current))
            self._ufreq[gid] = tuple(current) + pad

    def _repartition_graph(self, node: PartitionNode, gid: int) -> None:
        """Re-run the partition cascade for one (updated) graph."""
        if node.depth == 0:
            node.ufreq[gid] = self._ufreq[gid]
            node.orig_vertices[gid] = tuple(
                range(self._database[gid].num_vertices)
            )
        if node.children is None:
            return
        bipart = self.partitioner(node.database[gid], node.ufreq[gid])
        parent_orig = node.orig_vertices[gid]
        node.connective_edges[gid] = tuple(
            (parent_orig[u], parent_orig[v])
            for u, v in bipart.connective_edges
        )
        for side_index, side in enumerate((bipart.side0, bipart.side1)):
            child = node.children[side_index]
            child.database.replace(gid, side.graph)
            child.ufreq[gid] = side.ufreq
            child.orig_vertices[gid] = tuple(
                parent_orig[old] for old in side.orig_vertices
            )
            self._repartition_graph(child, gid)

    # ------------------------------------------------------------------
    def _merge(
        self,
        node: PartitionNode,
        old: PartMinerResult,
        node_results: dict[NodeKey, PatternSet],
        touched: dict[NodeKey, dict[int, frozenset]],
        stats: IncrementalStats,
        totals: dict[str, int],
    ) -> PatternSet:
        """The node's result after the batch, stored in ``node_results``
        (which starts as the pre-batch map) for every re-merged node."""
        key = _key(node)
        if node.is_leaf:
            return node_results[key]
        previous = old.node_results[key]
        if not any(touched[_key(leaf)] for leaf in node.leaves()):
            # No affected unit below: the cached results are still valid.
            return previous
        children = [
            self._merge(child, old, node_results, touched, stats, totals)
            for child in node.children
        ]
        threshold = node.support_threshold(self._threshold)
        work = stats.merge_stats[key] = MergeJoinStats()
        t0 = time.perf_counter()
        with obs.span(
            "merge.level", level=node.depth, index=node.index
        ) as level_span:
            merged = node_results[key] = merge_join(
                node.database,
                *children,
                threshold,
                strict_paper_joins=self.strict_paper_joins,
                max_size=self.max_size,
                stats=work,
                delta=MergeDelta(
                    previous,
                    *(old.node_results[_key(c)] for c in node.children),
                    touched[key],
                ),
            )
            facts = {
                "recounted": work.known_reused,
                "recount_searches": work.recount_searches,
                "fi": sum(1 for p in previous if p.key not in merged),
                "pairs_skipped_untouched": work.join_pairs_untouched,
                "candidates_counted": work.candidates_counted,
                "if_": sum(1 for p in merged if p.key not in previous),
            }
            level_span.set_attrs(
                patterns=len(merged),
                threshold=threshold,
                touched=len(touched[key]),
                **facts,
            )
        for name, value in facts.items():
            totals[name] = totals.get(name, 0) + value
        stats.merge_times[key] = time.perf_counter() - t0
        return merged
