"""DBPartition: dividing a graph database into k units (paper, Fig 6).

The database is split ``floor(log2 k)`` times into a full binary tree by
calling the graph partitioner on every graph; when ``k`` is not a power of
two, the first ``k - 2^l`` leaves are split one more time, yielding exactly
``k`` leaf units.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from .graphpart import Bipartition, GraphPartitioner
from .units import PartitionNode, PartitionTree, UfreqMap

Partitioner = Callable[[LabeledGraph, Sequence[float]], Bipartition]


def split_node(node: PartitionNode, partitioner: Partitioner) -> None:
    """Split every graph of ``node`` in two, attaching two child nodes.

    This is the paper's ``DivideDBPart``: the two sides of each graph go to
    the two child databases under the same gid.
    """
    if node.children is not None:
        raise ValueError("node is already split")
    databases = (GraphDatabase(), GraphDatabase())
    ufreqs: tuple[UfreqMap, UfreqMap] = ({}, {})
    origs: tuple[dict, dict] = ({}, {})
    for gid, graph in node.database:
        bipart = partitioner(graph, node.ufreq[gid])
        parent_orig = node.orig_vertices[gid]
        node.connective_edges[gid] = tuple(
            (parent_orig[u], parent_orig[v])
            for u, v in bipart.connective_edges
        )
        for side_index, side in enumerate((bipart.side0, bipart.side1)):
            databases[side_index].add(gid, side.graph)
            ufreqs[side_index][gid] = side.ufreq
            origs[side_index][gid] = tuple(
                parent_orig[old] for old in side.orig_vertices
            )
    node.children = tuple(
        PartitionNode(
            database=databases[i],
            ufreq=ufreqs[i],
            orig_vertices=origs[i],
            depth=node.depth + 1,
            index=2 * node.index + i,
        )
        for i in (0, 1)
    )


def recommended_k(
    database: GraphDatabase, max_unit_edges: int
) -> int:
    """The smallest unit count whose units fit a memory budget.

    The paper determines ``k`` "by the size of main memory" (Section 4.1):
    units must be small enough for the memory-based miner.  Each of the
    ``k`` units holds roughly ``total_edges / k`` edges (plus duplicated
    connective edges, here budgeted at ~20%), so this returns the smallest
    ``k >= 1`` with ``1.2 * total_edges / k <= max_unit_edges``.
    """
    if max_unit_edges < 1:
        raise ValueError(f"max_unit_edges must be >= 1: {max_unit_edges}")
    total = database.total_edges()
    k = 1
    while 1.2 * total / k > max_unit_edges:
        k += 1
    return k


def db_partition(
    database: GraphDatabase,
    k: int,
    ufreq: UfreqMap | None = None,
    partitioner: Partitioner | None = None,
) -> PartitionTree:
    """Divide ``database`` into ``k`` units (paper, Fig 6 ``DBPartition``).

    Parameters
    ----------
    database:
        The graph database ``D``.
    k:
        Number of units (>= 1); determined in practice by available memory.
    ufreq:
        Optional per-graph update frequencies (gid -> per-vertex tuple);
        zeros when omitted.
    partitioner:
        The per-graph bi-partitioning algorithm; defaults to
        :class:`GraphPartitioner` with the paper's Partition3 criterion
        (lambda1 = lambda2 = 1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if partitioner is None:
        partitioner = GraphPartitioner()

    # One pass over the database fills both root maps: over a
    # store-backed database every pass decodes every row.
    root_ufreq: UfreqMap = {}
    orig_vertices = {}
    for gid, graph in database:
        n = graph.num_vertices
        if ufreq is None:
            root_ufreq[gid] = (0.0,) * n
        elif gid not in ufreq or len(ufreq[gid]) != n:
            raise ValueError(
                f"ufreq for graph {gid} missing or wrong length"
            )
        orig_vertices[gid] = tuple(range(n))
    root = PartitionNode(
        database=database,
        ufreq=root_ufreq if ufreq is None else dict(ufreq),
        orig_vertices=orig_vertices,
        depth=0,
        index=0,
    )
    tree = PartitionTree(root=root, k=k)
    if k == 1:
        return tree

    level = int(math.floor(math.log2(k)))
    frontier = [root]
    for _ in range(level):
        next_frontier = []
        for node in frontier:
            split_node(node, partitioner)
            next_frontier.extend(node.children)
        frontier = next_frontier

    extra = k - 2**level
    for node in frontier[:extra]:
        split_node(node, partitioner)
    return tree
