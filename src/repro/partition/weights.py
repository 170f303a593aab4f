"""The bi-partitioning weight function (paper, equation (1)).

For a candidate vertex subset ``V1`` of a graph ``G``::

    w(V1) = lambda1 * (sum of ufreq over V1) / |V1|  -  lambda2 * |E(V1, V2)|

The first term rewards concentrating frequently-updated vertices in one
side; the second penalizes connective (cut) edges.  The paper's three
partitioning criteria (Section 5.1.1) are instances:

* Partition1 — isolate updated vertices: ``lambda1=1, lambda2=0``
* Partition2 — minimize connectivity:    ``lambda1=0, lambda2=1``
* Partition3 — both:                     ``lambda1=1, lambda2=1``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..graph.labeled_graph import LabeledGraph


def cut_edges(
    graph: LabeledGraph, subset: set[int]
) -> list[tuple[int, int]]:
    """Edges of ``graph`` with exactly one endpoint in ``subset``."""
    return [
        (u, v)
        for u, v, _ in graph.edges()
        if (u in subset) != (v in subset)
    ]


@dataclass(frozen=True)
class PartitionWeights:
    """Weight-function parameters ``lambda1`` (ufreq) and ``lambda2`` (cut)."""

    lambda1: float = 1.0
    lambda2: float = 1.0

    def weight(
        self, members: set[int], ufreq: Sequence[float], cut: int
    ) -> float:
        """Equation (1) for ``members`` given its number of cut edges.

        The one statement of the formula: :meth:`evaluate` counts the cut
        by scanning the graph, the GraphPart seed walk carries it.  The
        ufreq term is summed in ``members``' own iteration order, so two
        callers get bit-identical floats only for sets built the same way
        (``evaluate`` and the partitioner both pass ``set(subset)``).
        """
        if not members:
            return float("-inf")
        avg_ufreq = sum(ufreq[v] for v in members) / len(members)
        return self.lambda1 * avg_ufreq - self.lambda2 * cut

    def evaluate(
        self,
        graph: LabeledGraph,
        subset: Iterable[int],
        ufreq: Sequence[float],
    ) -> float:
        """Evaluate ``w(V1)`` for ``subset`` against the rest of ``graph``."""
        members = set(subset)
        return self.weight(members, ufreq, len(cut_edges(graph, members)))


#: Named criteria from the paper's Section 5.1.1.
PARTITION1 = PartitionWeights(lambda1=1.0, lambda2=0.0)
PARTITION2 = PartitionWeights(lambda1=0.0, lambda2=1.0)
PARTITION3 = PartitionWeights(lambda1=1.0, lambda2=1.0)
