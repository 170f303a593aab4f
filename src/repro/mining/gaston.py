"""Gaston-style frequent subgraph miner (Nijssen & Kok 2004).

The paper mines each unit with Gaston (Section 4.2, Fig 7).  Gaston's key
idea is a *quickstart*: most frequent substructures in practice are free
trees, so it enumerates frequent edges first, grows **paths**, refines paths
into **free trees**, and only then closes **cycles** — never adding a vertex
after the first cycle edge.  Occurrences are tracked in embedding lists, so
support counting never runs a general subgraph-isomorphism test.

This implementation keeps Gaston's phase structure and embedding lists and
uses minimum-DFS-code keys for duplicate elimination (Gaston's bespoke
canonical forms for each phase are an optimization over this, not a
behavioural difference).  Output is identical to :class:`GSpanMiner` — the
test suite cross-checks this.
"""

from __future__ import annotations

from enum import Enum

from ..graph.canonical import canonical_code
from ..graph.database import GraphDatabase
from ..graph.labeled_graph import Label, LabeledGraph
from .base import MiningStats, Pattern, PatternKey, PatternSet
from .edges import EdgeTriple, FrequentEdge, frequent_edges


class PatternClass(Enum):
    """Gaston's structural phases."""

    PATH = "path"
    TREE = "tree"
    CYCLIC = "cyclic"


def classify(graph: LabeledGraph) -> PatternClass:
    """Classify a connected pattern as path, free tree, or cyclic graph."""
    if graph.num_edges >= graph.num_vertices:
        return PatternClass.CYCLIC
    if all(graph.degree(v) <= 2 for v in graph.vertices()):
        return PatternClass.PATH
    return PatternClass.TREE


#: One occurrence of a pattern: ``(gid, vertices)`` with ``vertices[pv]``
#: the graph vertex that pattern vertex ``pv`` maps to (injective).
_Embedding = tuple[int, tuple[int, ...]]

#: A graph's adjacency restricted to frequent edges: per vertex, the
#: neighbours in the graph's own adjacency order mapped to
#: ``(edge label, neighbour's vertex label)``.
_Rows = list[dict[int, tuple[Label, Label]]]


def _frequent_rows(
    database: GraphDatabase, fedges: list[FrequentEdge]
) -> tuple[dict[int, _Rows], dict[EdgeTriple, dict[int, list]], int]:
    """One database pass: restricted rows, seed embeddings, edges dropped.

    An edge whose normalized triple is infrequent cannot occur in a
    frequent pattern (downward closure on single edges), so growth never
    has to look at it.  Seed embeddings come back per frequent triple and
    per gid, each gid's list in ``graph.edges()`` order.
    """
    seeds: dict[EdgeTriple, dict[int, list]] = {
        fedge.triple: {} for fedge in fedges
    }
    # Both orientations of every frequent triple, so rows are filled
    # without normalizing each directed edge.
    directed = set(seeds)
    directed.update((lv, le, lu) for lu, le, lv in seeds)
    rows: dict[int, _Rows] = {}
    dropped = 0
    for gid, graph in database:
        labels = graph.vertex_labels()
        graph_rows: _Rows = []
        kept = 0
        for u, lu in enumerate(labels):
            row = {}
            for v, le in graph.adjacency(u).items():
                lv = labels[v]
                if (lu, le, lv) not in directed:
                    continue
                row[v] = (le, lv)
                if u > v:
                    continue
                kept += 1
                for triple, pair in (
                    ((lu, le, lv), (u, v)),
                    ((lv, le, lu), (v, u)),
                ):
                    by_gid = seeds.get(triple)
                    if by_gid is not None:
                        by_gid.setdefault(gid, []).append((gid, pair))
            graph_rows.append(row)
        rows[gid] = graph_rows
        dropped += graph.num_edges - kept
    return rows, seeds, dropped


class GastonMiner:
    """Frequent miner with Gaston's path -> tree -> cyclic enumeration.

    Embeddings are extended over frequent edges only, and a refined
    pattern graph is built only for an extension group that meets the
    threshold, so ``stats.candidates_generated`` counts extension groups
    over frequent edges; ``stats.extras["infrequent_edges"]`` is the
    number of database edges the frequent-triple filter dropped.

    Parameters
    ----------
    max_size:
        Optional bound on pattern size (number of edges).
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
        seen: set[PatternKey] = set()

        fedges = frequent_edges(database, threshold)
        # The row tables live for this call only: the miner object
        # outlives it (PartMiner holds it through merge-join).
        rows, seeds, dropped = _frequent_rows(database, fedges)
        self.stats.extras["infrequent_edges"] = dropped
        for fedge in fedges:
            pattern = fedge.to_graph()
            key = canonical_code(pattern)
            if key in seen:
                continue
            seen.add(key)
            result.add(fedge.to_pattern())
            self.stats.patterns_found += 1
            if self.max_size is not None and self.max_size <= 1:
                continue
            by_gid = seeds[fedge.triple]
            embeddings = [emb for gid in fedge.tids for emb in by_gid[gid]]
            self._grow(rows, threshold, pattern, embeddings, result, seen)
        return result

    # ------------------------------------------------------------------
    def _grow(
        self,
        rows: dict[int, _Rows],
        threshold: int,
        pattern: LabeledGraph,
        embeddings: list[_Embedding],
        result: PatternSet,
        seen: set[PatternKey],
    ) -> None:
        if self.max_size is not None and pattern.num_edges >= self.max_size:
            return
        for (pu, pw, elabel, vlabel), group in self._refinements(
            rows, pattern, embeddings
        ):
            tids = {gid for gid, _ in group}
            self.stats.candidates_generated += 1
            if len(tids) < threshold:
                continue
            # Only a group that passes gets its pattern graph built.
            refined = pattern.copy()
            if pw is None:
                pw = refined.add_vertex(vlabel)
            refined.add_edge(pu, pw, elabel)
            key = canonical_code(refined)
            if key in seen:
                self.stats.duplicate_codes_pruned += 1
                continue
            seen.add(key)
            result.add(Pattern.from_graph(refined, tids))
            self.stats.patterns_found += 1
            self._grow(rows, threshold, refined, group, result, seen)

    # ------------------------------------------------------------------
    @staticmethod
    def _refinements(
        rows: dict[int, _Rows],
        pattern: LabeledGraph,
        embeddings: list[_Embedding],
    ):
        """Yield ``((pu, pw, elabel, vlabel), embeddings)`` per phase rules.

        The first element describes the refinement — a new edge ``pu-pw``
        labeled ``elabel``, where ``pw is None`` stands for a new vertex
        labeled ``vlabel`` — and the second holds its embeddings.

        * paths and trees take *node refinements* (a new leaf edge); for a
          path, refining an interior vertex turns it into a tree;
        * paths, trees and cyclic patterns take *cycle closings* (an edge
          between two existing vertices); after the first cycle edge, only
          more cycle closings are allowed (no new vertices).
        """
        # ----- node refinements (PATH and TREE phases only) -----
        node_groups: dict[
            tuple[int, tuple[Label, Label]], list[_Embedding]
        ] = {}
        if classify(pattern) is not PatternClass.CYCLIC:
            for gid, vertices in embeddings:
                graph_rows = rows[gid]
                for pv, gv in enumerate(vertices):
                    for w, labels in graph_rows[gv].items():
                        if w in vertices:
                            continue
                        group = node_groups.get((pv, labels))
                        if group is None:
                            node_groups[(pv, labels)] = group = []
                        group.append((gid, vertices + (w,)))
        for (pv, (elabel, vlabel)), group in node_groups.items():
            yield (pv, None, elabel, vlabel), group

        # ----- cycle closings (all phases) -----
        size = pattern.num_vertices
        open_pairs = [
            (pu, pw)
            for pu in range(size)
            for pw in range(pu + 1, size)
            if not pattern.has_edge(pu, pw)
        ]
        cycle_groups: dict[tuple[int, int, Label], list[_Embedding]] = {}
        for emb in embeddings:
            gid, vertices = emb
            graph_rows = rows[gid]
            for pu, pw in open_pairs:
                labels = graph_rows[vertices[pu]].get(vertices[pw])
                if labels is not None:
                    cycle_groups.setdefault(
                        (pu, pw, labels[0]), []
                    ).append(emb)
        for (pu, pw, elabel), group in cycle_groups.items():
            yield (pu, pw, elabel, None), group
