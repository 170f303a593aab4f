"""Frequent 1-edge pattern discovery shared by the miners.

A 1-edge pattern is identified by the normalized triple
``(min(l_u, l_v), l_edge, max(l_u, l_v))``; its support is the number of
database graphs containing at least one matching edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import Label, LabeledGraph
from .base import Pattern, PatternSet

EdgeTriple = tuple[Label, Label, Label]


def normalize_triple(lu: Label, le: Label, lv: Label) -> EdgeTriple:
    """Canonical orientation of a labeled edge: smaller vertex label first."""
    if (lv, lu) < (lu, lv):
        lu, lv = lv, lu
    return (lu, le, lv)


@dataclass
class FrequentEdge:
    """A frequent 1-edge pattern with its supporting graph ids."""

    triple: EdgeTriple
    tids: frozenset[int]

    @property
    def support(self) -> int:
        return len(self.tids)

    def to_graph(self) -> LabeledGraph:
        lu, le, lv = self.triple
        return LabeledGraph.single_edge(lu, le, lv)

    def to_pattern(self) -> Pattern:
        return Pattern.from_graph(self.to_graph(), self.tids)


def edge_triple_index(database: GraphDatabase) -> dict[EdgeTriple, set[int]]:
    """Each normalized edge triple -> the gids of the graphs carrying it."""
    tids_by_triple: dict[EdgeTriple, set[int]] = {}
    for gid, graph in database:
        triples = set()
        for u, v, elabel in graph.edges():
            triples.add(
                normalize_triple(
                    graph.vertex_label(u), elabel, graph.vertex_label(v)
                )
            )
        for triple in triples:
            tids_by_triple.setdefault(triple, set()).add(gid)
    return tids_by_triple


def frequent_in_index(
    tids_by_triple: dict[EdgeTriple, set[int]], threshold: int
) -> list[FrequentEdge]:
    """The index entries with support >= ``threshold``, sorted by triple."""
    result = [
        FrequentEdge(triple=triple, tids=frozenset(tids))
        for triple, tids in tids_by_triple.items()
        if len(tids) >= threshold
    ]
    result.sort(key=lambda fe: fe.triple)
    return result


def frequent_edges(
    database: GraphDatabase, threshold: int
) -> list[FrequentEdge]:
    """All 1-edge patterns with support >= ``threshold``, sorted by triple."""
    return frequent_in_index(edge_triple_index(database), threshold)


def frequent_edge_patterns(
    database: GraphDatabase, threshold: int
) -> PatternSet:
    """Frequent 1-edge patterns as a :class:`PatternSet` (``P^1`` sets)."""
    return PatternSet(
        fe.to_pattern() for fe in frequent_edges(database, threshold)
    )
