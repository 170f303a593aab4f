"""IncPartMiner: incremental mining under database updates (paper, Fig 12).

IncPartMiner is PartMiner's phase 2 re-run on the part of the partition
tree an update batch touched, on one held :class:`PartMiner`.  After the
initial run, a batch is handled as follows:

1. apply the updates to copies of the touched graphs — a batch that fails
   half-way leaves the miner exactly as it was — swap them in and
   re-partition **only the updated graphs** through the existing tree;
2. re-mine only the *affected units* — leaves whose piece of an updated
   graph changed (the paper's ``setword``) — with PartMiner's unit-mining
   step;
3. re-merge bottom-up with PartMiner's merge, at every internal node with
   an affected unit below it, by **delta counting** (``IncMergeJoin``):
   the set ``U`` of graphs whose piece changed at the node is known and
   every other graph is the graph it was, so an old pattern's TID list
   becomes ``(tids - U) | {g in U : P in g}`` — ``|U|`` searches per
   pattern, exact by construction — and a generator pair the node had
   already joined is joined again only where a graph of ``U`` gained an
   edge its candidates could use (see
   :class:`~repro.core.mergejoin.MergeDelta`);
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
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .. import obs, perf
from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from ..mining.base import PatternSet
from ..mining.edges import normalize_triple
from ..mining.gaston import GastonMiner
from ..partition.dbpartition import Partitioner, Piece, split_piece
from ..partition.graphpart import GraphPartitioner
from ..partition.units import PartitionNode, UfreqMap
from ..updates.model import Update, apply_updates
from .mergejoin import MergeDelta, MergeJoinStats
from .partminer import MinerFactory, PartMiner, PartMinerResult, UnitSupport

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


def _piece_elements(
    graph: LabeledGraph, orig: Sequence[int]
) -> tuple[dict, dict]:
    """A piece in root vertex ids: edge -> label triple and vertex ->
    label.  Two pieces with equal elements are one graph."""
    edges = {}
    for u, v, label in graph.edges():
        ends = (min(orig[u], orig[v]), max(orig[u], orig[v]), label)
        edges[ends] = normalize_triple(
            graph.vertex_label(u), label, graph.vertex_label(v)
        )
    vertices = {orig[v]: graph.vertex_label(v) for v in graph.vertices()}
    return edges, vertices


def _new_edge_triples(before: tuple, piece: Piece) -> frozenset | None:
    """Label triples of the edges ``piece`` gained over ``before``, the
    ``(graph, root_ids)`` it replaced: added, re-labelled, or at a new or
    re-labelled vertex.  ``None`` when the piece did not change.

    Any occurrence of a pattern the new piece has and the old one lacked
    covers a changed element, and — patterns being connected — an edge
    that is new or ends at a changed vertex.
    """
    _node, _gid, graph, _ufreq, root_ids = piece
    old_edges, old_vertices = _piece_elements(*before)
    edges, vertices = _piece_elements(graph, root_ids)
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
    Everything runs on :attr:`miner`, the one :class:`PartMiner` built
    from the arguments: the initial mine, each batch's re-mine of the
    affected units and its bottom-up re-merge.  Unlike a static run it
    keeps every piece database of the partition tree: batches
    re-partition through them and re-read them.
    """

    def __init__(
        self,
        k: int = 2,
        partitioner: Partitioner | None = None,
        miner_factory: MinerFactory = GastonMiner,
        unit_support: UnitSupport = "paper",
        strict_paper_joins: bool = False,
        max_size: int | None = None,
    ) -> None:
        self.miner = PartMiner(
            k=k,
            partitioner=(
                partitioner if partitioner is not None else GraphPartitioner()
            ),
            miner_factory=miner_factory,
            unit_support=unit_support,
            strict_paper_joins=strict_paper_joins,
            max_size=max_size,
        )
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
        self._result = self.miner._mine(
            self._database, self._threshold, self._ufreq, keep_tree=True
        )
        return self._result

    # ------------------------------------------------------------------
    def apply_updates(self, updates: list[Update]) -> IncrementalResult:
        """Process one update batch incrementally.

        The batch is applied to copies of the graphs it touches and
        swapped in only once every update went through: an invalid update
        raises the error :func:`~repro.updates.model.apply_update` raises
        and leaves the miner as it was before the call.  The batch runs
        with the cyclic collector paused (:func:`repro.perf.collector_paused`).
        """
        if self._result is None or self._database is None:
            raise RuntimeError("call initial_mine() first")
        with perf.collector_paused(), obs.span(
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
        return result

    def _apply_staged(self, staged: GraphDatabase) -> IncrementalResult:
        miner, old = self.miner, self._result
        tree = old.tree
        threshold = self._threshold
        stats = IncrementalStats(updated_graphs=len(staged))

        # --- step 1: swap in the updated graphs, re-partition them -------
        with obs.span("inc.repartition") as step:
            t0 = time.perf_counter()
            nodes = list(tree.nodes())
            # Per node: the gids whose piece changed there, each with the
            # label triples of the edges its new piece gained.
            touched: dict[NodeKey, dict[int, frozenset]] = {
                _key(node): {} for node in nodes
            }
            for gid, graph in staged:
                was = self._database[gid]
                self._database.replace(gid, graph)
                # The partition step, down the tree for this graph alone;
                # each piece is paired with the one it replaced.
                root = (
                    tree.root, gid, graph, self._pad_ufreq(gid),
                    range(graph.num_vertices),
                )
                pending = [(root, (was, range(was.num_vertices)))]
                while pending:
                    piece, before = pending.pop()
                    node = piece[0]
                    gained = _new_edge_triples(before, piece)
                    if gained is not None:
                        touched[_key(node)][gid] = gained
                    if not node.is_leaf:
                        replaced = [
                            (child.database[gid], child.orig_vertices[gid])
                            for child in node.children
                        ]
                        pending += zip(
                            split_piece(piece, miner.partitioner), replaced
                        )
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

        # --- step 2: re-mine affected units ------------------------------
        with obs.span("inc.remine") as step:
            mined, times, _ = miner._mine_units(
                [units[i] for i in affected], threshold, keep_tree=True
            )
            step.set_attrs(units_remined=stats.units_remined)
        new = PartMinerResult(
            patterns=old.patterns,
            tree=tree,
            threshold=threshold,
            node_results=dict(old.node_results),
            unit_times=[0.0] * len(units),
            merge_times=stats.merge_times,
            merge_stats=stats.merge_stats,
            partition_time=stats.repartition_time,
        )
        for i, found, elapsed in zip(affected, mined, times):
            new.unit_times[i] = elapsed
            new.node_results[_key(units[i])] = found
        stats.remine_times = times
        stats.remine_time = sum(times)

        # --- step 3: delta merge-join, bottom-up --------------------------
        deltas = {
            _key(node): MergeDelta(
                old.node_results[_key(node)],
                *(old.node_results[_key(child)] for child in node.children),
                touched[_key(node)],
            )
            for node in nodes
            if not node.is_leaf
            and any(touched[_key(leaf)] for leaf in node.leaves())
        }
        with obs.span("inc.merge") as step:
            t0 = time.perf_counter()
            new.patterns = miner._combine(
                tree.root, threshold, new, deltas, keep_tree=True
            )
            stats.merge_time = time.perf_counter() - t0
            totals: Counter[str] = Counter()
            for key, work in stats.merge_stats.items():
                totals.update(deltas[key].facts(new.node_results[key], work))
            step.set_attrs(nodes=len(stats.merge_stats), **totals)

        # --- step 4: classification ---------------------------------------
        with obs.span("inc.classify") as step:
            t0 = time.perf_counter()
            unchanged = PatternSet(
                p for p in new.patterns if p.key in old.patterns
            )
            became_frequent = PatternSet(
                p for p in new.patterns if p.key not in old.patterns
            )
            became_infrequent = PatternSet(
                p for p in old.patterns if p.key not in new.patterns
            )
            stats.classify_time = time.perf_counter() - t0
            step.set_attrs(
                uf=len(unchanged),
                fi=len(became_infrequent),
                if_=len(became_frequent),
            )

        # Commit the new state; its run facts are this batch's own.
        self._result = new
        return IncrementalResult(
            patterns=new.patterns,
            unchanged=unchanged,
            became_infrequent=became_infrequent,
            became_frequent=became_frequent,
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _pad_ufreq(self, gid: int) -> tuple[float, ...]:
        """A graph's ufreq, extended for vertices added by the batch."""
        graph = self._database[gid]
        current = self._ufreq.get(gid, ())
        if len(current) < graph.num_vertices:
            # Freshly added vertices were just updated: treat them as hot.
            pad = (0.5,) * (graph.num_vertices - len(current))
            self._ufreq[gid] = tuple(current) + pad
        return self._ufreq[gid]
