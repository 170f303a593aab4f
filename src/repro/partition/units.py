"""Partition trees and units.

``DBPartition`` (paper Fig 6) recursively bi-partitions every graph of the
database, producing a binary *partition tree* whose leaves are the ``k``
units handed to the memory-based miner.  The tree records, at every node,
the piece databases plus the provenance needed later:

* ``orig_vertices`` — for every gid, the map from piece vertex ids back to
  the **root** graph's vertex ids.  IncPartMiner uses it to find which
  units contain updated vertices;
* ``ufreq`` — per-vertex update frequencies, propagated into the pieces;
* ``connective_edges`` — the cut edges of the split that created this
  node's children (root vertex ids), for diagnostics.

The merge-join runs bottom-up over the same tree, and the depth field
drives the paper's reduced support thresholds (``sup/k`` in the units).
A static PartMiner run releases every non-root piece database once the
merge above it has read it: the node's ``database`` is then ``None`` and
the rest of the node stays.
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
    ufreq: UfreqMap
    orig_vertices: OrigMap
    depth: int
    index: int
    children: tuple["PartitionNode", "PartitionNode"] | None = None
    connective_edges: dict[int, tuple[tuple[int, int], ...]] = field(
        default_factory=dict
    )

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
        return sum(len(edges) for edges in self.connective_edges.values())

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
