"""GraphPart: bi-partitioning a single graph (paper, Fig 5).

``GraphPart`` splits a graph ``G`` into two subgraphs ``G1`` and ``G2``:

1. vertices are sorted by update frequency (descending);
2. from each seed in the top half, a depth-first scan that always follows
   the unvisited neighbor with the highest update frequency collects a
   candidate subset of at most ``|V|/2`` vertices;
3. the subset maximizing the weight function ``w`` (see
   :mod:`repro.partition.weights`) wins;
4. both sides keep the *connective edges* (edges across the cut) together
   with their endpoints, so the original graph can be recovered — this is
   what makes the merge-join's recovery theorem work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..graph.labeled_graph import Label, LabeledGraph
from .weights import PartitionWeights


@dataclass(frozen=True)
class SidePiece:
    """One side of a bipartition, with provenance.

    ``graph`` is the side's subgraph with densely renumbered vertices;
    ``orig_vertices[i]`` is the original id of its vertex ``i``; ``ufreq``
    carries the per-vertex update frequencies into the piece.
    """

    graph: LabeledGraph
    orig_vertices: tuple[int, ...]
    ufreq: tuple[float, ...]

    def to_original(self, vertex: int) -> int:
        return self.orig_vertices[vertex]


@dataclass(frozen=True)
class Bipartition:
    """Result of bi-partitioning one graph.

    ``core0``/``core1`` are the original vertex ids *assigned* to each side
    (disjoint); each :class:`SidePiece` additionally contains the boundary
    vertices brought in by the connective edges, which belong to both
    pieces.
    """

    side0: SidePiece
    side1: SidePiece
    core0: frozenset[int]
    core1: frozenset[int]
    connective_edges: tuple[tuple[int, int], ...]

    @property
    def num_connective_edges(self) -> int:
        return len(self.connective_edges)


def _make_side(
    graph: LabeledGraph,
    core: set[int],
    boundary: set[int],
    edges: list[tuple[int, int, Label]],
    ufreq: Sequence[float],
) -> SidePiece:
    ordered = sorted(core) + sorted(boundary)
    mapping = {old: new for new, old in enumerate(ordered)}
    side = LabeledGraph()
    for old in ordered:
        side.add_vertex(graph.vertex_label(old))
    for u, v, label in edges:
        side.add_edge(mapping[u], mapping[v], label)
    return SidePiece(
        graph=side,
        orig_vertices=tuple(ordered),
        ufreq=tuple(ufreq[old] for old in ordered),
    )


def build_bipartition(
    graph: LabeledGraph,
    subset: set[int],
    ufreq: Sequence[float] | None = None,
) -> Bipartition:
    """Materialize the two sides for a chosen vertex subset ``V*``.

    Side 0 holds the edges within ``subset`` plus the connective edges;
    side 1 holds the edges within the complement plus the connective edges
    (paper Fig 5, lines 13-14).
    """
    if ufreq is None:
        ufreq = [0.0] * graph.num_vertices
    complement = set(graph.vertices()) - subset
    crossing: list[tuple[int, int]] = []
    edges0: list[tuple[int, int, Label]] = []
    edges1: list[tuple[int, int, Label]] = []
    # Boundary vertices: the far endpoint of each connective edge.
    boundary0: set[int] = set()
    boundary1: set[int] = set()
    for edge in graph.edges():
        u, v, _ = edge
        u_in = u in subset
        if u_in == (v in subset):
            (edges0 if u_in else edges1).append(edge)
            continue
        crossing.append((u, v))
        edges0.append(edge)
        edges1.append(edge)
        inside, outside = (u, v) if u_in else (v, u)
        boundary0.add(outside)
        boundary1.add(inside)
    return Bipartition(
        side0=_make_side(graph, subset, boundary0, edges0, ufreq),
        side1=_make_side(graph, complement, boundary1, edges1, ufreq),
        core0=frozenset(subset),
        core1=frozenset(complement),
        connective_edges=tuple(crossing),
    )


def _ranked_rows(
    graph: LabeledGraph, ufreq: Sequence[float]
) -> tuple[list[int], list[list[int]]]:
    """The vertices in walk order, and each vertex's row in that order.

    The walk's key is ``(-ufreq, id)``: seeds are taken from the front of
    the vertex order, and "the unvisited neighbour with the highest
    update frequency" is the first unvisited entry of a row.
    """
    order = sorted(graph.vertices(), key=lambda v: (-ufreq[v], v))
    rank = [0] * len(order)
    for position, vertex in enumerate(order):
        rank[vertex] = position
    by_rank = rank.__getitem__
    return order, [
        sorted(graph.adjacency(v), key=by_rank) for v in graph.vertices()
    ]


def _seed_walk(
    rows: list[list[int]], seed: int, limit: int
) -> tuple[set[int], int]:
    """The DFSScan walk over ranked ``rows``: ``(visited, cut size)``.

    ``visited`` only grows, so each stacked vertex keeps one iterator
    over its row that never moves back; the cut size is carried along —
    a vertex that joins turns its edges to unvisited vertices into cut
    edges and its edges to visited ones into inner edges.
    """
    visited = {seed}
    cut = len(rows[seed])
    stack = [iter(rows[seed])]
    while stack and len(visited) < limit:
        for best in stack[-1]:
            if best not in visited:
                break
        else:
            stack.pop()
            continue
        row = rows[best]
        cut += len(row) - 2 * len(visited.intersection(row))
        visited.add(best)
        stack.append(iter(row))
    return visited, cut


def dfs_scan(
    graph: LabeledGraph,
    seed: int,
    limit: int,
    ufreq: Sequence[float],
) -> set[int]:
    """Depth-first scan from ``seed`` collecting at most ``limit`` vertices.

    At each step the walk continues to the unvisited neighbor with the
    highest update frequency (paper Fig 5, DFSScan line 21; ties broken by
    vertex id for determinism), backtracking when stuck.
    """
    _order, rows = _ranked_rows(graph, ufreq)
    return _seed_walk(rows, seed, limit)[0]


class GraphPartitioner:
    """The GraphPart algorithm as a reusable callable.

    Parameters
    ----------
    weights:
        The :class:`PartitionWeights` implementing the partitioning
        criterion (Partition1/2/3 from the paper, or custom lambdas).

    ``seeds_walked`` counts the seed walks run over the partitioner's
    lifetime (an owner reads it before and after a batch of calls).
    """

    def __init__(self, weights: PartitionWeights | None = None) -> None:
        self.weights = weights if weights is not None else PartitionWeights()
        self.seeds_walked = 0

    def __call__(
        self,
        graph: LabeledGraph,
        ufreq: Sequence[float] | None = None,
    ) -> Bipartition:
        return self.partition(graph, ufreq)

    def partition(
        self,
        graph: LabeledGraph,
        ufreq: Sequence[float] | None = None,
    ) -> Bipartition:
        """Bi-partition ``graph``; trivial graphs put everything in side 0."""
        n = graph.num_vertices
        if ufreq is None:
            ufreq = [0.0] * n
        if n < 2 or graph.num_edges == 0:
            return build_bipartition(graph, set(graph.vertices()), ufreq)

        order, rows = _ranked_rows(graph, ufreq)
        # Seed count and walk limit are the same number, and
        # 1 <= n // 2 < n here: no walk can leave side 1 empty.
        limit = n // 2
        best_subset: set[int] | None = None
        best_weight = float("-inf")
        for seed in order[:limit]:
            subset, cut = _seed_walk(rows, seed, limit)
            weight = self.weights.weight(set(subset), ufreq, cut)
            if weight > best_weight:
                best_weight = weight
                best_subset = subset
        self.seeds_walked += limit
        if best_subset is None:
            # No weight compared above -inf (infinite or NaN lambdas):
            # fall back to a plain half split in vertex order.
            best_subset = set(order[:limit])
        return build_bipartition(graph, best_subset, ufreq)
