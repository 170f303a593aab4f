"""Partition trees and units.

``DBPartition`` (paper Fig 6) recursively bi-partitions every graph of the
database, producing a binary *partition tree* whose leaves are the ``k``
units handed to the memory-based miner.  A node holds:

* ``database`` — its piece of every graph, under the graph's gid;
* ``orig_vertices`` — for every gid, the map from piece vertex ids back to
  the **root** graph's vertex ids.  The root's pieces are the graphs
  themselves, so the root stores none.  IncPartMiner uses the maps to
  find which units hold changed elements;
* ``connective_edges`` — per gid, the number of cut edges of the split
  that created this node's children.

Update frequencies (ufreq) are not stored here: their one owner is the
caller's map, and each piece's share travels with it through the
partition step (:func:`repro.partition.dbpartition.split_piece`).

The merge-join runs bottom-up over the same tree, and the depth field
drives the paper's reduced support thresholds (``sup/k`` in the units).
A static PartMiner run releases every non-root piece database once the
merge above it has read it: the node's ``database`` is then ``None``, its
``orig_vertices`` are empty, and the rest of the node stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from ..graph.database import GraphDatabase

UfreqMap = dict[int, tuple[float, ...]]
OrigMap = dict[int, tuple[int, ...]]


@dataclass
class PartitionNode:
    """One node of the partition tree (the root holds the full database)."""

    database: GraphDatabase | None  # None once a static PartMiner released it
    depth: int
    index: int
    children: tuple["PartitionNode", "PartitionNode"] | None = None
    orig_vertices: OrigMap = field(default_factory=dict)  # empty at the root
    connective_edges: dict[int, int] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def leaves(self) -> Iterator["PartitionNode"]:
        """Leaves of the subtree, left to right."""
        if self.children is None:
            yield self
        else:
            yield from self.children[0].leaves()
            yield from self.children[1].leaves()

    def total_connective_edges(self) -> int:
        """Number of cut edges introduced by this node's split."""
        return sum(self.connective_edges.values())

    def release(self) -> None:
        """Drop the piece database and its root-id maps (static runs)."""
        self.database = None
        self.orig_vertices = {}

    def support_threshold(self, root_threshold: int) -> int:
        """The paper's reduced threshold for this node: ``sup / 2^depth``."""
        return max(1, math.ceil(root_threshold / (2**self.depth)))

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "internal"
        held = self.database
        graphs = "released" if held is None else f"graphs={len(held)}"
        return (
            f"PartitionNode(depth={self.depth}, index={self.index}, "
            f"{kind}, {graphs})"
        )


@dataclass
class PartitionTree:
    """The full partition tree with its ``k`` units (leaves)."""

    root: PartitionNode
    k: int

    def units(self) -> list[PartitionNode]:
        """The ``k`` leaf units, left to right (``U_1 .. U_k``)."""
        return list(self.root.leaves())

    def nodes(self) -> Iterator[PartitionNode]:
        """All nodes, pre-order."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(reversed(node.children))

    def total_connective_edges(self) -> int:
        """Cut edges introduced across all splits (a partition quality metric)."""
        return sum(node.total_connective_edges() for node in self.nodes())
