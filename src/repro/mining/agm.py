"""AGM/AcGM-style mining of frequent connected *induced* subgraphs.

The paper's related work opens with AGM (Inokuchi et al. [6]), the first
Apriori-like graph miner.  AGM differs from everything else in this
library in its *pattern semantics*: a pattern occurs in a graph only as an
**induced** subgraph — non-edges count, so a 3-path does *not* occur in a
triangle.  This module implements the connected variant (AcGM):

* level ``k`` holds the frequent connected induced patterns with ``k``
  vertices;
* candidates come from joining two ``k``-vertex patterns over a shared
  ``(k-1)``-vertex core (obtained by single-vertex deletion; cores may be
  disconnected), enumerating every relationship — no edge, or an edge per
  frequent label — between the two non-core vertices;
* every candidate is support-counted with induced semantics.

Because induced semantics are different, AGM's output is *not* comparable
to gSpan's; the test oracle is :class:`InducedBruteForceMiner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from ..graph.canonical import canonical_code
from ..graph.database import GraphDatabase
from ..graph.isomorphism import count_support, find_embeddings
from ..graph.labeled_graph import Label, LabeledGraph
from .base import MiningStats, Pattern, PatternSet

InducedKey = Hashable


def induced_pattern_key(graph: LabeledGraph) -> InducedKey:
    """Canonical key for a connected graph with >= 1 vertex.

    Single vertices (no edges) get a special key; larger connected graphs
    use the minimum DFS code.  (Under induced semantics a graph is still
    identified by plain isomorphism — only *matching* differs.)
    """
    if graph.num_vertices == 1:
        return ("vertex", graph.vertex_label(0))
    return canonical_code(graph)


def _component_key(graph: LabeledGraph, component: list[int]) -> InducedKey:
    piece = graph.induced_subgraph(component)
    return induced_pattern_key(piece)


def core_key(graph: LabeledGraph) -> InducedKey:
    """Canonical key for a possibly-disconnected graph (join cores)."""
    keys = sorted(
        (repr(_component_key(graph, component)))
        for component in graph.connected_components()
    )
    return ("multi", tuple(keys))


@dataclass
class _VertexCore:
    """A pattern minus one vertex, with re-attachment bookkeeping."""

    core: LabeledGraph
    key: InducedKey
    core_to_parent: tuple[int, ...]
    removed_label: Label
    removed_edges: tuple[tuple[int, Label], ...]  # (core vertex, edge label)


def vertex_deletion_cores(pattern: LabeledGraph) -> list[_VertexCore]:
    """All single-vertex-deletion cores (cores may be disconnected)."""
    cores = []
    for u in pattern.vertices():
        keep = [v for v in pattern.vertices() if v != u]
        core = pattern.induced_subgraph(keep)
        parent_to_core = {old: new for new, old in enumerate(keep)}
        cores.append(
            _VertexCore(
                core=core,
                key=core_key(core),
                core_to_parent=tuple(keep),
                removed_label=pattern.vertex_label(u),
                removed_edges=tuple(
                    (parent_to_core[w], label)
                    for w, label in pattern.neighbors(u)
                ),
            )
        )
    return cores


@dataclass
class AGMStats(MiningStats):
    """Counters for one AGM run."""

    levels: int = 0
    candidates_per_level: list[int] = field(default_factory=list)


class AGMMiner:
    """Frequent connected induced subgraph miner (AGM/AcGM family).

    Parameters
    ----------
    max_vertices:
        Optional bound on pattern size **in vertices** (AGM's levels).
    """

    def __init__(self, max_vertices: int | None = None) -> None:
        self.max_vertices = max_vertices
        self.stats = AGMStats()

    # ------------------------------------------------------------------
    def mine(
        self, database: GraphDatabase, min_support: float | int
    ) -> PatternSet:
        """Mine all frequent connected induced patterns.

        Returns a :class:`PatternSet` whose supports use **induced**
        semantics.  Single-vertex patterns are included (they are the
        level-1 seeds and legitimate induced patterns).
        """
        self.stats = AGMStats()
        threshold = database.absolute_support(min_support)
        result = PatternSet()

        edge_labels = {
            elabel
            for _, graph in database
            for _, _, elabel in graph.edges()
        }

        # Level 1: frequent vertex labels.
        tids_by_label: dict[Label, set[int]] = {}
        for gid, graph in database:
            for label in set(graph.vertex_labels()):
                tids_by_label.setdefault(label, set()).add(gid)
        level: list[Pattern] = []
        for label, tids in sorted(tids_by_label.items()):
            if len(tids) < threshold:
                continue
            single = LabeledGraph()
            single.add_vertex(label)
            pattern = Pattern(
                graph=single,
                key=induced_pattern_key(single),
                support=len(tids),
                tids=frozenset(tids),
            )
            level.append(pattern)
            result.add(pattern)
        self.stats.levels = 1
        self.stats.candidates_per_level.append(len(level))

        num_vertices = 1
        while level and (
            self.max_vertices is None or num_vertices < self.max_vertices
        ):
            candidates = self._generate(level, edge_labels)
            self.stats.candidates_per_level.append(len(candidates))
            next_level = []
            for key, (graph, bound) in candidates.items():
                support, tids = self._count(database, graph, bound)
                if support >= threshold:
                    pattern = Pattern(
                        graph=graph, key=key, support=support,
                        tids=frozenset(tids),
                    )
                    next_level.append(pattern)
                    result.add(pattern)
            self.stats.levels += 1
            level = next_level
            num_vertices += 1
        self.stats.patterns_found = len(result)
        return result

    # ------------------------------------------------------------------
    def _generate(
        self, level: list[Pattern], edge_labels: set[Label]
    ) -> dict[InducedKey, tuple[LabeledGraph, frozenset[int]]]:
        """Join the level pairwise over shared (k-1)-vertex cores."""
        if level and level[0].graph.num_vertices == 1:
            return self._generate_from_singletons(level, edge_labels)

        index: dict[InducedKey, list[tuple[int, _VertexCore]]] = {}
        all_cores: list[list[_VertexCore]] = []
        for i, pattern in enumerate(level):
            cores = vertex_deletion_cores(pattern.graph)
            all_cores.append(cores)
            for core in cores:
                index.setdefault(core.key, []).append((i, core))

        candidates: dict[
            InducedKey, tuple[LabeledGraph, frozenset[int]]
        ] = {}
        for entries in index.values():
            for a in range(len(entries)):
                i, donor = entries[a]
                for b in range(len(entries)):
                    j, host_core = entries[b]
                    bound = level[i].tids & level[j].tids
                    if not bound:
                        continue
                    self._overlay(
                        donor,
                        host_core,
                        level[j].graph,
                        bound,
                        edge_labels,
                        candidates,
                    )
        self.stats.candidates_generated += len(candidates)
        return candidates

    def _generate_from_singletons(
        self, level: list[Pattern], edge_labels: set[Label]
    ) -> dict[InducedKey, tuple[LabeledGraph, frozenset[int]]]:
        """Level 1 -> 2: every labeled edge between two frequent labels."""
        candidates: dict[
            InducedKey, tuple[LabeledGraph, frozenset[int]]
        ] = {}
        for p in level:
            for q in level:
                bound = p.tids & q.tids
                if not bound:
                    continue
                for elabel in edge_labels:
                    graph = LabeledGraph.single_edge(
                        p.graph.vertex_label(0), elabel,
                        q.graph.vertex_label(0),
                    )
                    key = induced_pattern_key(graph)
                    if key not in candidates:
                        candidates[key] = (graph, bound)
        return candidates

    def _overlay(
        self,
        donor: _VertexCore,
        host_core: _VertexCore,
        host: LabeledGraph,
        bound: frozenset[int],
        edge_labels: set[Label],
        candidates: dict,
    ) -> None:
        """Re-attach the donor's removed vertex inside the host."""
        host_vertex = None
        # The host vertex missing from the host core:
        in_core = set(host_core.core_to_parent)
        for v in host.vertices():
            if v not in in_core:
                host_vertex = v
                break
        for phi in find_embeddings(donor.core, host_core.core):
            base = host.copy()
            new_vertex = base.add_vertex(donor.removed_label)
            ok = True
            for core_vertex, label in donor.removed_edges:
                target = host_core.core_to_parent[phi[core_vertex]]
                if base.has_edge(new_vertex, target):
                    ok = False
                    break
                base.add_edge(new_vertex, target, label)
            if not ok:
                continue
            # Enumerate the relationship between the two non-core
            # vertices: absent, or one edge per label.
            variants = [base]
            if host_vertex is not None:
                for elabel in sorted(edge_labels, key=repr):
                    variant = base.copy()
                    variant.add_edge(new_vertex, host_vertex, elabel)
                    variants.append(variant)
            for candidate in variants:
                if not candidate.is_connected():
                    continue
                key = induced_pattern_key(candidate)
                if key not in candidates:
                    candidates[key] = (candidate, bound)

    # ------------------------------------------------------------------
    def _count(
        self,
        database: GraphDatabase,
        pattern: LabeledGraph,
        bound: frozenset[int],
    ) -> tuple[int, set[int]]:
        self.stats.isomorphism_tests += len(bound)
        return count_support(
            pattern, database, candidate_gids=bound, induced=True
        )


class InducedBruteForceMiner:
    """Exhaustive oracle for induced mining (small inputs only)."""

    def __init__(self, max_vertices: int | None = None) -> None:
        self.max_vertices = max_vertices

    def mine(
        self, database: GraphDatabase, min_support: float | int
    ) -> PatternSet:
        threshold = database.absolute_support(min_support)
        occurrences: dict[InducedKey, tuple[LabeledGraph, set[int]]] = {}
        for gid, graph in database:
            for key, piece in self._connected_induced(graph).items():
                if key not in occurrences:
                    occurrences[key] = (piece, set())
                occurrences[key][1].add(gid)
        result = PatternSet()
        for key, (piece, tids) in occurrences.items():
            if len(tids) >= threshold:
                result.add(
                    Pattern(
                        graph=piece, key=key, support=len(tids),
                        tids=frozenset(tids),
                    )
                )
        return result

    def _connected_induced(
        self, graph: LabeledGraph
    ) -> dict[InducedKey, LabeledGraph]:
        found: dict[InducedKey, LabeledGraph] = {}
        seen: set[frozenset[int]] = set()
        frontier = []
        for v in graph.vertices():
            subset = frozenset([v])
            seen.add(subset)
            frontier.append(subset)
        while frontier:
            next_frontier = []
            for subset in frontier:
                piece = graph.induced_subgraph(sorted(subset))
                key = induced_pattern_key(piece)
                if key not in found:
                    found[key] = piece
                if (
                    self.max_vertices is not None
                    and len(subset) >= self.max_vertices
                ):
                    continue
                for v in subset:
                    for w in graph.neighbor_ids(v):
                        if w in subset:
                            continue
                        grown = subset | {w}
                        if grown not in seen:
                            seen.add(grown)
                            next_frontier.append(grown)
            frontier = next_frontier
        return found
