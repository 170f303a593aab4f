"""DBPartition: dividing a graph database into k units (paper, Fig 6).

:func:`db_partition` builds the tree's skeleton — ``floor(log2 k)`` full
levels, and when ``k`` is not a power of two the first ``k - 2^l`` leaves
split once more, yielding exactly ``k`` leaf units — then splits every
graph down it with :func:`split_piece`, the one partition step.
IncPartMiner runs the same step down the tree for each graph an update
batch changed.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from .graphpart import Bipartition, GraphPartitioner
from .units import PartitionNode, PartitionTree, UfreqMap

Partitioner = Callable[[LabeledGraph, Sequence[float]], Bipartition]


#: A node's piece of one graph, with what splitting it further needs:
#: ``(node, gid, graph, ufreq, root_ids)``, where ``root_ids[v]`` is the
#: root graph's id of piece vertex ``v``.
Piece = tuple[PartitionNode, int, LabeledGraph, Sequence[float], Sequence[int]]


def split_piece(piece: Piece, partitioner: Partitioner) -> list[Piece]:
    """Split one graph's piece at its (internal) node into the children.

    This is the paper's ``DivideDBPart`` for one graph: the partitioner
    cuts the piece by its ufreq, and both sides go into the two child
    databases under the piece's gid — added, or replacing the piece an
    earlier partition put there.  Returns the children's new pieces.
    """
    node, gid, graph, ufreq, root_ids = piece
    bipart = partitioner(graph, ufreq)
    node.connective_edges[gid] = bipart.num_connective_edges
    sides = []
    for child, side in zip(node.children, (bipart.side0, bipart.side1)):
        ids = tuple(root_ids[v] for v in side.orig_vertices)
        if gid in child.database:
            child.database.replace(gid, side.graph)
        else:
            child.database.add(gid, side.graph)
        child.orig_vertices[gid] = ids
        sides.append((child, gid, side.graph, side.ufreq, ids))
    return sides


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

    root = PartitionNode(database=database, depth=0, index=0)
    level = int(math.floor(math.log2(k)))
    frontier = [root]
    for _ in range(level):
        frontier = [child for node in frontier for child in _grow(node)]
    for node in frontier[: k - 2**level]:
        _grow(node)
    if k == 1 and ufreq is None:
        return PartitionTree(root=root, k=k)  # nothing to split or check

    # One split pass per depth that holds internal nodes.  The root's
    # pieces are read lazily, in one pass that also checks ufreq: over a
    # store-backed database every pass decodes every row.  Below the
    # root, a level is split node by node, each node's graphs in
    # database order, so each node's pieces are allocated together and
    # a released unit frees whole allocator pools (cascading each graph
    # down the tree instead interleaves the levels' pieces and raises a
    # static run's peak RSS).
    pieces: Iterable[Piece] = _root_pieces(root, database, ufreq)
    for _depth in range(level + 1):
        pieces = sorted(
            (
                side
                for piece in pieces
                if not piece[0].is_leaf
                for side in split_piece(piece, partitioner)
            ),
            key=lambda side: side[0].index,
        )
    return PartitionTree(root=root, k=k)


def _root_pieces(
    root: PartitionNode, database: GraphDatabase, ufreq: UfreqMap | None
) -> Iterator[Piece]:
    """The database's graphs as the root's pieces, ufreq checked."""
    for gid, graph in database:
        n = graph.num_vertices
        graph_ufreq = (0.0,) * n if ufreq is None else ufreq.get(gid)
        if graph_ufreq is None or len(graph_ufreq) != n:
            raise ValueError(
                f"ufreq for graph {gid} missing or wrong length"
            )
        yield root, gid, graph, graph_ufreq, range(n)


def _grow(node: PartitionNode) -> tuple[PartitionNode, PartitionNode]:
    """Attach two empty children to a leaf of the skeleton."""
    node.children = tuple(
        PartitionNode(
            database=GraphDatabase(),
            depth=node.depth + 1,
            index=2 * node.index + i,
        )
        for i in (0, 1)
    )
    return node.children
