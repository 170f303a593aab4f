"""Graph databases: collections of ``(gid, LabeledGraph)`` tuples.

A graph database (paper, Section 3) is a set of tuples ``(gid, G)`` where
``gid`` is a graph identifier and ``G`` an undirected labeled graph.  The
*support* of a pattern is the number of database graphs that contain it as a
subgraph.

:class:`GraphDatabase` keeps gids stable across partitioning and updates so
that unit databases produced by :mod:`repro.partition` stay aligned with the
original database.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .labeled_graph import Label, LabeledGraph


class GraphDatabase:
    """An ordered mapping from graph id to :class:`LabeledGraph`.

    The mapping itself is pluggable: by default graphs live in a plain
    dict (everything resident), but a storage backend may supply a
    ``store`` speaking the same protocol — e.g.
    :class:`repro.storage.sqlite.SQLiteGraphStore`, which decodes rows
    on demand through a bounded LRU so iteration over a database larger
    than RAM streams instead of accumulating.  All methods below go
    through the mapping protocol only, so they work over any store.
    """

    def __init__(
        self,
        graphs: Iterable[tuple[int, LabeledGraph]] = (),
        *,
        store=None,
    ) -> None:
        self._graphs = store if store is not None else {}
        #: Bumped whenever a graph object is added or replaced: a
        #: same-shape replacement has the same version counter as the
        #: graph it replaced, so versions alone cannot tell them apart.
        self.generation = 0
        for gid, graph in graphs:
            self.add(gid, graph)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(cls, graphs: Iterable[LabeledGraph]) -> "GraphDatabase":
        """Build a database assigning sequential gids ``0..n-1``."""
        database = cls()
        database.add_graphs(enumerate(graphs))
        return database

    def add(self, gid: int, graph: LabeledGraph) -> None:
        """Insert ``graph`` under ``gid``; raises on duplicate gid."""
        if gid in self._graphs:
            raise ValueError(f"duplicate graph id {gid}")
        self._graphs[gid] = graph
        self.generation += 1

    def add_graphs(
        self, graphs: Iterable[tuple[int, LabeledGraph]]
    ) -> int:
        """Bulk-insert ``(gid, graph)`` pairs; returns the count inserted.

        The batch path of :meth:`add`: validation (duplicate gids, both
        inside the batch and against the stored set) runs once when the
        batch is sealed instead of per graph, and plain in-memory
        databases take a single ``dict.update`` instead of one mapping
        probe + insert per call — what the neighborhood extractor
        (:mod:`repro.biggraph`) leans on when materializing one unit
        graph per vertex of a large graph.  Store-backed databases fall
        back to per-graph inserts through the mapping protocol (their
        write cost dominates anyway).  On a duplicate nothing is
        inserted.
        """
        store = self._graphs
        self.generation += 1
        if type(store) is not dict:
            staged = list(graphs)
            for gid, _graph in staged:
                if gid in store:
                    raise ValueError(f"duplicate graph id {gid}")
            for gid, graph in staged:
                store[gid] = graph
            return len(staged)
        staged = list(graphs)
        batch = dict(staged)
        if len(batch) != len(staged):
            seen: set[int] = set()
            for gid, _graph in staged:
                if gid in seen:
                    raise ValueError(f"duplicate graph id {gid}")
                seen.add(gid)
        if store:
            for gid in batch:
                if gid in store:
                    raise ValueError(f"duplicate graph id {gid}")
        store.update(batch)
        return len(batch)

    def replace(self, gid: int, graph: LabeledGraph) -> None:
        """Replace the graph stored under an existing ``gid``."""
        if gid not in self._graphs:
            raise KeyError(gid)
        self._graphs[gid] = graph
        self.generation += 1

    def copy(self, deep: bool = True) -> "GraphDatabase":
        """Copy the database; ``deep`` also copies every graph."""
        if deep:
            return GraphDatabase(
                (gid, graph.copy()) for gid, graph in self._graphs.items()
            )
        return GraphDatabase(self._graphs.items())

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, gid: int) -> bool:
        return gid in self._graphs

    def __getitem__(self, gid: int) -> LabeledGraph:
        return self._graphs[gid]

    def __iter__(self) -> Iterator[tuple[int, LabeledGraph]]:
        return iter(self._graphs.items())

    def gids(self) -> list[int]:
        """All graph ids, in insertion order."""
        return list(self._graphs)

    def graphs(self) -> Iterator[LabeledGraph]:
        """Iterate the graphs (without their gids).

        Over a disk-backed store this is a lazy decode stream — each
        graph is materialized on demand and only a bounded cache of
        decoded graphs is kept alive.
        """
        return iter(self._graphs.values())

    def state_token(self):
        """A value that changes whenever the database content changes.

        ``None`` for plain in-memory databases (callers fall back to
        per-graph identity/version stamps); a stable comparable token for
        store-backed databases, where object identity is meaningless
        because decoded graphs are evicted and re-decoded.
        """
        token = getattr(self._graphs, "state_token", None)
        return token() if token is not None else None

    def store_stats(self) -> dict | None:
        """The backing store's decoded-graph cache stats.

        ``None`` for plain in-memory databases; for a store-backed one,
        its cache's ``GraphLRU.stats()`` (hits, misses, entries, ...).
        """
        stats = getattr(self._graphs, "stats", None)
        return stats() if stats is not None else None

    def digests(self, digest: Callable[[LabeledGraph], str]) -> dict[int, str]:
        """gid -> content digest of every graph.

        Store-backed databases answer with the digests their rows keep,
        without decoding any graph; in memory ``digest`` computes each.
        """
        stored = getattr(self._graphs, "digests", None)
        if stored is not None:
            return stored()
        return {gid: digest(graph) for gid, graph in self._graphs.items()}

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def total_edges(self) -> int:
        """Sum of edge counts over all graphs.

        Store-backed databases answer this from indexed columns without
        decoding any graph.
        """
        fast = getattr(self._graphs, "total_edges", None)
        if fast is not None:
            return fast()
        return sum(g.num_edges for g in self._graphs.values())

    def total_vertices(self) -> int:
        """Sum of vertex counts over all graphs."""
        fast = getattr(self._graphs, "total_vertices", None)
        if fast is not None:
            return fast()
        return sum(g.num_vertices for g in self._graphs.values())

    def average_size(self) -> float:
        """Average number of edges per graph (0.0 for an empty database)."""
        if not self._graphs:
            return 0.0
        return self.total_edges() / len(self._graphs)

    def vertex_label_support(self) -> dict[Label, int]:
        """For each vertex label, the number of graphs containing it."""
        support: dict[Label, int] = {}
        for graph in self._graphs.values():
            for label in set(graph.vertex_labels()):
                support[label] = support.get(label, 0) + 1
        return support

    def edge_triple_support(self) -> dict[tuple[Label, Label, Label], int]:
        """Support of each 1-edge pattern.

        Keys are canonical triples ``(min(lu, lv), elabel, max(lu, lv))``;
        values are the number of graphs containing at least one such edge.
        """
        support: dict[tuple[Label, Label, Label], int] = {}
        for graph in self._graphs.values():
            triples = set()
            for u, v, elabel in graph.edges():
                lu, lv = graph.vertex_label(u), graph.vertex_label(v)
                if (lv, lu) < (lu, lv):
                    lu, lv = lv, lu
                triples.add((lu, elabel, lv))
            for triple in triples:
                support[triple] = support.get(triple, 0) + 1
        return support

    def filter(
        self, predicate: Callable[[int, LabeledGraph], bool]
    ) -> "GraphDatabase":
        """Database of the graphs for which ``predicate(gid, graph)`` holds."""
        return GraphDatabase(
            (gid, graph)
            for gid, graph in self._graphs.items()
            if predicate(gid, graph)
        )

    def absolute_support(self, fraction_or_count: float | int) -> int:
        """Convert a support threshold to an absolute count.

        A float in ``(0, 1]`` is a fraction of the database size; an int (or a
        float >= 1) is an absolute count.  The result is always at least 1.
        """
        if isinstance(fraction_or_count, float) and 0 < fraction_or_count <= 1:
            import math

            return max(1, math.ceil(fraction_or_count * len(self)))
        count = int(fraction_or_count)
        if count < 1:
            raise ValueError(f"support must be positive, got {fraction_or_count}")
        return count

    def __repr__(self) -> str:
        return (
            f"GraphDatabase(graphs={len(self._graphs)}, "
            f"edges={self.total_edges()})"
        )
