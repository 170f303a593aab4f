"""gSpan: frequent subgraph mining by DFS-code growth (Yan & Han 2002).

The paper uses gSpan's DFS-code machinery for pattern identity (Section 3)
and gSpan itself is the archetypal memory-based miner PartMiner can run
inside its units.  The implementation follows the standard scheme:

* frequent 1-edge patterns seed the search;
* patterns grow by *rightmost extension* — backward edges from the rightmost
  vertex to rightmost-path vertices, and forward edges from rightmost-path
  vertices;
* a grown code is explored only if it is the minimum DFS code of its graph
  (duplicate elimination);
* support comes from projection (embedding) lists, counted per graph id.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.canonical import (
    DFSCode,
    DFSEdge,
    edge_sort_key,
    is_min_code,
)
from ..graph.database import GraphDatabase
from .base import MiningStats, Pattern, PatternSet
from .edges import frequent_edges


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass
class _Projection:
    """One embedding of the current DFS code in a database graph."""

    gid: int
    vertices: tuple[int, ...]  # code index -> graph vertex
    edges: frozenset[tuple[int, int]]  # covered graph edges (normalized)

    def extended(self, new_vertex: int | None, edge: tuple[int, int]):
        vertices = (
            self.vertices + (new_vertex,)
            if new_vertex is not None
            else self.vertices
        )
        return _Projection(
            gid=self.gid,
            vertices=vertices,
            edges=self.edges | {_norm(*edge)},
        )


class GSpanMiner:
    """Frequent connected-subgraph miner using gSpan DFS-code growth.

    Parameters
    ----------
    max_size:
        Optional bound on pattern size (number of edges); ``None`` mines the
        full frequent set.
    """

    def __init__(self, max_size: int | None = None) -> None:
        self.max_size = max_size
        self.stats = MiningStats()

    # ------------------------------------------------------------------
    def mine(
        self, database: GraphDatabase, min_support: float | int
    ) -> PatternSet:
        """Mine all frequent connected patterns (see :class:`Miner`)."""
        self.stats = MiningStats()
        threshold = database.absolute_support(min_support)
        result = PatternSet()

        for fedge in frequent_edges(database, threshold):
            lu, le, lv = fedge.triple
            result.add(fedge.to_pattern())
            self.stats.patterns_found += 1
            if self.max_size is not None and self.max_size <= 1:
                continue
            seed: DFSEdge = (0, 1, lu, le, lv)
            projections = []
            for gid in fedge.tids:
                graph = database[gid]
                for u, v, elabel in graph.edges():
                    if elabel != le:
                        continue
                    for a, b in ((u, v), (v, u)):
                        if (
                            graph.vertex_label(a) == lu
                            and graph.vertex_label(b) == lv
                        ):
                            projections.append(
                                _Projection(
                                    gid,
                                    (a, b),
                                    frozenset([_norm(a, b)]),
                                )
                            )
            self._grow(database, threshold, [seed], projections, result)
        return result

    # ------------------------------------------------------------------
    def _grow(
        self,
        database: GraphDatabase,
        threshold: int,
        code: list[DFSEdge],
        projections: list[_Projection],
        result: PatternSet,
    ) -> None:
        if self.max_size is not None and len(code) >= self.max_size:
            return
        rmpath = DFSCode(tuple(code)).rightmost_path()
        extensions = self._extensions(database, code, rmpath, projections)

        for key in sorted(extensions):
            edge, projs = extensions[key]
            tids = {p.gid for p in projs}
            if len(tids) < threshold:
                continue
            new_code = code + [edge]
            self.stats.candidates_generated += 1
            if not is_min_code(new_code):
                self.stats.duplicate_codes_pruned += 1
                continue
            pattern_graph = DFSCode(tuple(new_code)).to_graph()
            result.add(Pattern.from_graph(pattern_graph, tids))
            self.stats.patterns_found += 1
            self._grow(database, threshold, new_code, projs, result)

    # ------------------------------------------------------------------
    def _extensions(
        self,
        database: GraphDatabase,
        code: list[DFSEdge],
        rmpath: list[int],
        projections: list[_Projection],
    ) -> dict:
        """Rightmost extensions grouped by DFS edge."""
        num_vertices = max(max(i, j) for i, j, *_ in code) + 1
        rm_idx = rmpath[-1]
        groups: dict = {}

        def push(edge: DFSEdge, proj: _Projection) -> None:
            key = edge_sort_key(edge)
            if key not in groups:
                groups[key] = (edge, [])
            groups[key][1].append(proj)

        for proj in projections:
            graph = database[proj.gid]
            mapped = {v: i for i, v in enumerate(proj.vertices)}
            rm_vertex = proj.vertices[rm_idx]

            # Backward: rightmost vertex -> rightmost-path vertex.
            for path_idx in rmpath[:-1]:
                target = proj.vertices[path_idx]
                if not graph.has_edge(rm_vertex, target):
                    continue
                if _norm(rm_vertex, target) in proj.edges:
                    continue
                edge = (
                    rm_idx,
                    path_idx,
                    graph.vertex_label(rm_vertex),
                    graph.edge_label(rm_vertex, target),
                    graph.vertex_label(target),
                )
                push(edge, proj.extended(None, (rm_vertex, target)))

            # Forward: rightmost-path vertex -> new vertex.
            for path_idx in rmpath:
                source = proj.vertices[path_idx]
                for w, elabel in graph.neighbors(source):
                    if w in mapped:
                        continue
                    edge = (
                        path_idx,
                        num_vertices,
                        graph.vertex_label(source),
                        elabel,
                        graph.vertex_label(w),
                    )
                    push(edge, proj.extended(w, (source, w)))
        return groups
