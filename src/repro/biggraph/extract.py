"""r-neighborhood decomposition of one large labeled graph.

The single-large-graph workload (Han & Wen, arXiv 1305.3082) reduces to
the paper's transactional setting by cutting the *r-hop neighborhood* of
every vertex (the *pivot*) out of the input graph and treating the
resulting collection as an ordinary
:class:`~repro.graph.database.GraphDatabase`.  Any embedding of a
connected pattern whose radius is at most ``r`` lies entirely inside the
r-neighborhood of the image of one of its center vertices.  That
database *defines* the support semantics of ``repro mine-big`` — a
pattern's pivot support is the number of units containing it — but the
miner itself grows patterns on the big graph and never builds it
(:mod:`repro.biggraph.miner`); the reference MNI fold
(:mod:`repro.biggraph.mni`, ``--no-accel``), ``repro neighborhoods``
and the tests do.

Provenance is positional: **each unit graph's gid is its pivot vertex
id**, and the unit is the induced subgraph over
:func:`neighborhood_vertices` *in that exact order* — so the mapping
``local vertex i  ↔  global vertex order[i]`` is recomputable on demand
from the big graph alone, also after a storage round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import Label, LabeledGraph

def neighborhood_vertices(
    graph: LabeledGraph, pivot: int, radius: int
) -> list[int]:
    """Vertices within ``radius`` hops of ``pivot``, deterministically.

    The order is the decomposition's contract: BFS level by level, ids
    ascending within a level, pivot first.  It is a pure function of the
    graph, so the extractor and the MNI fold (which maps unit-local
    vertex ``i`` back to ``order[i]``) always agree — including across
    processes and storage round-trips.
    """
    if not 0 <= pivot < graph.num_vertices:
        raise ValueError(
            f"pivot {pivot} out of range (graph has "
            f"{graph.num_vertices} vertices)"
        )
    if radius < 0:
        raise ValueError(f"radius must be >= 0: {radius}")
    order = [pivot]
    seen = {pivot}
    frontier = [pivot]
    for _ in range(radius):
        nxt: set[int] = set()
        for v in frontier:
            for w in graph.neighbor_ids(v):
                if w not in seen:
                    nxt.add(w)
        if not nxt:
            break
        frontier = sorted(nxt)
        seen.update(frontier)
        order.extend(frontier)
    return order


@dataclass(frozen=True)
class ExtractionStats:
    """Shape digest of one decomposition (CLI inspection, telemetry)."""

    radius: int
    pivots: int
    total_vertices: int
    total_edges: int
    max_vertices: int
    max_edges: int

    @property
    def avg_vertices(self) -> float:
        return self.total_vertices / self.pivots if self.pivots else 0.0

    @property
    def avg_edges(self) -> float:
        return self.total_edges / self.pivots if self.pivots else 0.0

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "pivots": self.pivots,
            "total_vertices": self.total_vertices,
            "total_edges": self.total_edges,
            "avg_vertices": round(self.avg_vertices, 2),
            "avg_edges": round(self.avg_edges, 2),
            "max_vertices": self.max_vertices,
            "max_edges": self.max_edges,
        }


@dataclass(frozen=True)
class NeighborhoodExtractor:
    """Cuts the r-hop neighborhood of every pivot into unit graphs.

    ``pivot_labels`` restricts pivots to vertices carrying one of the
    given labels.  The default (``None``) pivots on *every* vertex,
    which is what makes MNI exact for all patterns of radius ≤ r; a
    restricted pivot set changes the semantics to *pivot-anchored*
    patterns (see DESIGN.md §16) — embeddings not
    within ``radius`` of any pivot-labeled vertex become invisible.
    """

    radius: int = 1
    pivot_labels: frozenset[Label] | None = None

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0: {self.radius}")
        if self.pivot_labels is not None and not isinstance(
            self.pivot_labels, frozenset
        ):
            object.__setattr__(
                self, "pivot_labels", frozenset(self.pivot_labels)
            )

    # ------------------------------------------------------------------
    def pivots(self, graph: LabeledGraph) -> list[int]:
        """The pivot vertex ids, ascending."""
        if self.pivot_labels is None:
            return list(range(graph.num_vertices))
        return [
            v
            for v in range(graph.num_vertices)
            if graph.vertex_label(v) in self.pivot_labels
        ]

    def unit(self, graph: LabeledGraph, pivot: int) -> LabeledGraph:
        """The neighborhood unit graph of one pivot.

        Local vertex ``i`` is global vertex
        ``neighborhood_vertices(graph, pivot, radius)[i]``.
        """
        return graph.induced_subgraph(
            neighborhood_vertices(graph, pivot, self.radius)
        )

    # ------------------------------------------------------------------
    def extract(self, graph: LabeledGraph) -> GraphDatabase:
        """Materialize the neighborhood database in memory, through one
        bulk :meth:`~repro.graph.database.GraphDatabase.add_graphs`.
        Unit gids are pivot vertex ids."""
        database = GraphDatabase()
        database.add_graphs(
            (pivot, self.unit(graph, pivot)) for pivot in self.pivots(graph)
        )
        return database

    # ------------------------------------------------------------------
    def stats(self, database: GraphDatabase) -> ExtractionStats:
        """Shape digest of an extracted neighborhood database."""
        pivots = total_v = total_e = max_v = max_e = 0
        for _gid, unit in database:
            pivots += 1
            total_v += unit.num_vertices
            total_e += unit.num_edges
            max_v = max(max_v, unit.num_vertices)
            max_e = max(max_e, unit.num_edges)
        return ExtractionStats(
            radius=self.radius,
            pivots=pivots,
            total_vertices=total_v,
            total_edges=total_e,
            max_vertices=max_v,
            max_edges=max_e,
        )
