"""Minimum DFS codes — the canonical form used for pattern identity.

Implements the gSpan encoding (Yan & Han 2002) used by the paper (Section 3,
Fig 1): a graph is encoded as the sequence of its edges in DFS order, each
edge a 5-tuple ``(i, j, l_i, l_(i,j), l_j)`` of DFS discovery indices and
labels.  Among all DFS codes of a graph, the *minimum DFS code* is canonical:
two graphs are isomorphic iff their minimum DFS codes are equal.

The minimum code is computed by a backtracking search over partial DFS codes
that keeps, for each candidate prefix, every embedding (partial DFS
traversal) realizing it, and always explores the lexicographically smallest
next edge first.  Sound pruning rules (forced backward edges; no forward
extension that abandons pending edges; cross-edge death) make the first
complete code found the minimum.  The embeddings realizing it are the
graph's automorphisms; :func:`canonical_form` keeps them as *orders*, which
is how the merge-join overlays map one core onto another.

Vertex and edge labels must be mutually comparable (all ints or all strings).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from ..perf.counters import COUNTERS
from .labeled_graph import Label, LabeledGraph

# A DFS edge: (i, j, l_i, l_edge, l_j).  Forward iff i < j.
DFSEdge = tuple[int, int, Label, Label, Label]

# Position-local sort key linearizing gSpan's edge order among candidate
# extensions of a common prefix: backward edges (0, ...) precede forward
# edges (1, ...); backward edges order by target index then label; forward
# edges order by source depth descending, then labels.
CodeKey = tuple


def edge_sort_key(edge: DFSEdge) -> CodeKey:
    """Sort key for one DFS edge among extensions of the same prefix."""
    i, j, li, le, lj = edge
    if i > j:  # backward
        return (0, j, le)
    return (1, -i, li, le, lj)


def code_sort_key(code: Sequence[DFSEdge]) -> tuple[CodeKey, ...]:
    """Hashable, order-preserving key for a whole DFS code."""
    return tuple(edge_sort_key(edge) for edge in code)


@dataclass(frozen=True)
class DFSCode:
    """A DFS code: an ordered tuple of DFS edges."""

    edges: tuple[DFSEdge, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def sort_key(self) -> tuple[CodeKey, ...]:
        """Hashable, order-preserving key of this code."""
        return code_sort_key(self.edges)

    def num_vertices(self) -> int:
        """Number of vertices the coded graph has."""
        if not self.edges:
            return 0
        return max(max(i, j) for i, j, _, _, _ in self.edges) + 1

    def to_graph(self) -> LabeledGraph:
        """Materialize the coded graph with vertex ids = DFS indices."""
        graph = LabeledGraph()
        for i, j, li, le, lj in self.edges:
            while graph.num_vertices <= max(i, j):
                graph.add_vertex(None)
            if graph.vertex_label(i) is None:
                graph.set_vertex_label(i, li)
            if graph.vertex_label(j) is None:
                graph.set_vertex_label(j, lj)
            graph.add_edge(i, j, le)
        return graph

    def rightmost_path(self) -> list[int]:
        """DFS indices root..rightmost-vertex along forward tree edges."""
        if not self.edges:
            return []
        parent: dict[int, int] = {}
        rightmost = 0
        for i, j, _, _, _ in self.edges:
            if i < j:  # forward
                parent[j] = i
                rightmost = j
        path = [rightmost]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def __str__(self) -> str:
        return " ".join(
            f"({i},{j},{li},{le},{lj})" for i, j, li, le, lj in self.edges
        )


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class _Embedding:
    """A partial DFS traversal of the input graph realizing a code prefix."""

    __slots__ = ("order", "inverse", "covered")

    def __init__(
        self,
        order: list[int],
        inverse: dict[int, int],
        covered: set[tuple[int, int]],
    ) -> None:
        self.order = order  # code index -> graph vertex
        self.inverse = inverse  # graph vertex -> code index
        self.covered = covered  # normalized covered graph edges

    def extended(
        self, new_vertex: int | None, edge: tuple[int, int]
    ) -> "_Embedding":
        order = list(self.order)
        inverse = dict(self.inverse)
        if new_vertex is not None:
            inverse[new_vertex] = len(order)
            order.append(new_vertex)
        covered = set(self.covered)
        covered.add(_norm(*edge))
        return _Embedding(order, inverse, covered)


def _extensions(
    graph: LabeledGraph, emb: _Embedding, rmpath: list[int]
) -> list[tuple[DFSEdge, int | None, tuple[int, int]]]:
    """Valid next DFS edges of one embedding.

    Returns ``(dfs_edge, new_graph_vertex_or_None, graph_edge)`` triples, or
    an empty list if the embedding is dead (has an unemittable cross edge).
    """
    rm_idx = rmpath[-1]
    rm_vertex = emb.order[rm_idx]
    rmpath_set = set(rmpath)

    # Death check: an uncovered edge between two mapped vertices is only
    # emittable as a backward edge from the rightmost vertex to a vertex on
    # the rightmost path; anything else can never be covered.
    backward: list[tuple[int, Label, int]] = []
    for u_idx, u in enumerate(emb.order):
        for w, elabel in graph.neighbors(u):
            w_idx = emb.inverse.get(w)
            if w_idx is None or _norm(u, w) in emb.covered:
                continue
            if u_idx == rm_idx and w_idx in rmpath_set and w_idx != rm_idx:
                backward.append((w_idx, elabel, w))
            elif w_idx == rm_idx and u_idx in rmpath_set:
                continue  # same edge, seen from the other side
            else:
                return []  # cross edge: dead embedding

    if backward:
        # Backward edges from the rightmost vertex are forced, in increasing
        # target-index order; only the smallest can come next.
        j, elabel, w = min(backward)
        edge: DFSEdge = (
            rm_idx,
            j,
            graph.vertex_label(rm_vertex),
            elabel,
            graph.vertex_label(w),
        )
        return [(edge, None, (rm_vertex, w))]

    # Forward extensions, from the deepest rightmost-path vertex upward.  A
    # forward edge from a shallower vertex pops deeper vertices off the
    # rightmost path; if any popped vertex still has pending edges the code
    # can never cover them, so iteration stops at the first vertex with
    # pending edges (after emitting its own extensions).
    extensions: list[tuple[DFSEdge, int | None, tuple[int, int]]] = []
    new_idx = len(emb.order)
    for depth in range(len(rmpath) - 1, -1, -1):
        v_idx = rmpath[depth]
        v = emb.order[v_idx]
        pending = False
        for w, elabel in graph.neighbors(v):
            if w in emb.inverse or _norm(v, w) in emb.covered:
                continue
            pending = True
            edge = (
                v_idx,
                new_idx,
                graph.vertex_label(v),
                elabel,
                graph.vertex_label(w),
            )
            extensions.append((edge, w, (v, w)))
        if pending:
            break
    return extensions


def _search(
    graph: LabeledGraph,
    total_edges: int,
    code: list[DFSEdge],
    rmpath: list[int],
    embeddings: list[_Embedding],
) -> tuple[list[DFSEdge], list[_Embedding]] | None:
    """Smallest completion of ``code``, with every embedding realizing it.

    A module-level recursion: a self-referencing closure would leave a
    reference cycle for the collector on every call.
    """
    if len(code) == total_edges:
        return code, embeddings
    groups: dict[CodeKey, tuple[DFSEdge, list[_Embedding]]] = {}
    for emb in embeddings:
        for edge, new_vertex, graph_edge in _extensions(graph, emb, rmpath):
            key = edge_sort_key(edge)
            if key not in groups:
                groups[key] = (edge, [])
            groups[key][1].append(emb.extended(new_vertex, graph_edge))
    for key in sorted(groups):
        edge, group = groups[key]
        i, j = edge[0], edge[1]
        if i < j:  # forward: source depth on rmpath, then new vertex
            depth = rmpath.index(i)
            new_rmpath = rmpath[: depth + 1] + [j]
        else:
            new_rmpath = rmpath
        result = _search(graph, total_edges, code + [edge], new_rmpath, group)
        if result is not None:
            return result
    return None


def _minimum(graph: LabeledGraph) -> tuple[list[DFSEdge], list[_Embedding]]:
    """The minimum DFS code and every embedding realizing it."""
    if graph.num_edges == 0:
        raise ValueError("minimum DFS code requires at least one edge")
    if not graph.is_connected():
        raise ValueError("minimum DFS code requires a connected graph")

    # Seed: the smallest 1-edge code over all edges and orientations.
    best_seed: DFSEdge | None = None
    seeds: list[_Embedding] = []
    for u, v, elabel in graph.edges():
        for a, b in ((u, v), (v, u)):
            candidate: DFSEdge = (
                0,
                1,
                graph.vertex_label(a),
                elabel,
                graph.vertex_label(b),
            )
            key = edge_sort_key(candidate)
            if best_seed is None or key < edge_sort_key(best_seed):
                best_seed = candidate
                seeds = []
            if key == edge_sort_key(best_seed):
                seeds.append(
                    _Embedding([a, b], {a: 0, b: 1}, {_norm(a, b)})
                )
    assert best_seed is not None

    result = _search(graph, graph.num_edges, [best_seed], [0, 1], seeds)
    assert result is not None, "connected graph must have a complete DFS code"
    return result


def min_dfs_code(graph: LabeledGraph) -> DFSCode:
    """Compute the minimum DFS code of a connected graph with >= 1 edge.

    Raises :class:`ValueError` for empty or disconnected graphs (patterns in
    frequent subgraph mining are connected by definition).
    """
    return DFSCode(tuple(_minimum(graph)[0]))


# A canonical code and its orders: every ``order`` with code index i at
# vertex ``order[i]``, one per automorphism.
CanonicalForm = tuple[tuple[CodeKey, ...], tuple[tuple[int, ...], ...]]

# Process-wide forms by exact labelled structure, flattened into one tuple:
# the vertex count, the vertex labels in id order, then every edge's
# (u, v, label).  Equal keys are identical graphs, so a hit is exact, and
# the orders are in the ids every graph of that shape shares.  Units,
# merge levels and update batches meet the same shapes again on fresh
# instances (copies, join overlays, re-mines) whose ``_canon`` slot is
# empty.  No lock: a thread racing the clear costs a recompute or
# overshoots the cap by an entry, never a wrong code.
_SHAPE_TABLE: dict[tuple, CanonicalForm] = {}
_SHAPE_TABLE_LIMIT = 20_000


def canonical_form(graph: LabeledGraph) -> CanonicalForm:
    """``(canonical code, orders)`` of a connected graph with >= 1 edge.

    The orders are every way of reading the minimum DFS code off
    ``graph``: code index ``i`` sits at vertex ``order[i]``.  There is one
    per automorphism, so two isomorphic graphs' isomorphisms are exactly
    ``a[i] -> b[0]`` over the orders ``a`` of one and ``b`` of the other.

    Served from the process-wide shape table; only its misses run the
    minimum-code search (counted as ``canonical_codes``).
    """
    labels = graph._vertex_labels
    shape = (len(labels), *labels, *chain.from_iterable(graph.edges()))
    form = _SHAPE_TABLE.get(shape)
    if form is None:
        code, group = _minimum(graph)
        form = (code_sort_key(code), tuple(tuple(emb.order) for emb in group))
        COUNTERS.inc("canonical_codes")
        if len(_SHAPE_TABLE) >= _SHAPE_TABLE_LIMIT:
            _SHAPE_TABLE.clear()
        _SHAPE_TABLE[shape] = form
    return form


def canonical_code(graph: LabeledGraph) -> tuple[CodeKey, ...]:
    """Hashable canonical key of a connected graph.

    Two connected graphs are isomorphic iff their canonical codes are equal.

    The key is memoized on the graph against its ``version`` counter (the
    same scheme as the histogram cache), so repeated canonicalization of a
    long-lived pattern graph — join inputs recur across levels, nodes and
    update batches — costs a tuple compare after the first call.  Behind
    that slot, :func:`canonical_form`'s process-wide shape table serves
    any graph with exactly the labels and edges of one coded before.
    """
    cached = graph._canon
    if cached is not None and cached[0] == graph.version:
        return cached[1]
    code = canonical_form(graph)[0]
    graph._canon = (graph.version, code)
    return code


def is_min_code(code: Sequence[DFSEdge]) -> bool:
    """True if ``code`` is the minimum DFS code of the graph it encodes."""
    dfs = DFSCode(tuple(code))
    return min_dfs_code(dfs.to_graph()).sort_key() == dfs.sort_key()
