"""Shared test fixtures and graph builders."""

from __future__ import annotations

import random

import pytest

from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import LabeledGraph


def make_graph(vertex_labels, edges) -> LabeledGraph:
    """Shorthand constructor used throughout the tests."""
    return LabeledGraph.from_vertices_and_edges(vertex_labels, edges)


def triangle(labels=(0, 0, 0), edge_label=0) -> LabeledGraph:
    return make_graph(
        labels,
        [(0, 1, edge_label), (1, 2, edge_label), (2, 0, edge_label)],
    )


def path_graph(n: int, vlabel=0, elabel=0) -> LabeledGraph:
    """Path with ``n`` vertices (``n - 1`` edges)."""
    return make_graph(
        [vlabel] * n, [(i, i + 1, elabel) for i in range(n - 1)]
    )


def star_graph(leaves: int, center_label=0, leaf_label=1, elabel=0):
    return make_graph(
        [center_label] + [leaf_label] * leaves,
        [(0, i + 1, elabel) for i in range(leaves)],
    )


def random_graph(
    rng: random.Random,
    n: int,
    extra_edges: int = 0,
    num_vertex_labels: int = 3,
    num_edge_labels: int = 2,
) -> LabeledGraph:
    """Random connected graph: spanning tree + up to ``extra_edges`` chords."""
    graph = LabeledGraph()
    for _ in range(n):
        graph.add_vertex(rng.randrange(num_vertex_labels))
    for v in range(1, n):
        graph.add_edge(v, rng.randrange(v), rng.randrange(num_edge_labels))
    tries = 0
    while tries < extra_edges * 3 and graph.num_edges < n - 1 + extra_edges:
        u, v = rng.randrange(n), rng.randrange(n)
        tries += 1
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.randrange(num_edge_labels))
    return graph


def random_database(
    seed: int,
    num_graphs: int = 10,
    n: int = 7,
    extra_edges: int = 2,
    num_vertex_labels: int = 3,
    num_edge_labels: int = 2,
) -> GraphDatabase:
    rng = random.Random(seed)
    return GraphDatabase.from_graphs(
        random_graph(
            rng,
            rng.randrange(max(2, n - 2), n + 1),
            extra_edges,
            num_vertex_labels,
            num_edge_labels,
        )
        for _ in range(num_graphs)
    )


def permuted_copy(graph: LabeledGraph, perm: list[int]) -> LabeledGraph:
    """Isomorphic copy of ``graph`` with vertices reordered by ``perm``."""
    inverse = [0] * graph.num_vertices
    for new, old in enumerate(perm):
        inverse[old] = new
    clone = LabeledGraph()
    for old in perm:
        clone.add_vertex(graph.vertex_label(old))
    for u, v, label in graph.edges():
        clone.add_edge(inverse[u], inverse[v], label)
    return clone


def deletion_core_graph(parent: LabeledGraph, core) -> LabeledGraph:
    """Rebuild a :class:`~repro.graph.operations.DeletionCore`'s graph from
    its parent as ``edge_deletion_cores`` builds it: the parent minus the
    removed edge, on the core's vertices renumbered in ascending order."""
    kept = sorted(core.orders[0])
    far = core.other
    if far is None:  # the endpoint the deletion isolated
        far = next(v for v in parent.vertices() if v not in kept)
    work = parent.copy()
    work.remove_edge(core.anchor, far)
    return work.induced_subgraph(kept)


def reads_code(graph: LabeledGraph, order, code) -> bool:
    """True if ``order`` (DFS code index -> vertex of ``graph``) maps every
    edge of ``code`` onto an equally labelled edge of ``graph``."""
    return all(
        graph.vertex_label(order[i]) == li
        and graph.vertex_label(order[j]) == lj
        and graph.has_edge(order[i], order[j])
        and graph.edge_label(order[i], order[j]) == le
        for i, j, li, le, lj in code.edges
    )


@pytest.fixture
def small_db() -> GraphDatabase:
    """A tiny deterministic database with known frequent patterns.

    Three graphs sharing the labeled path 0-1 / 1-1; graph 2 adds a
    triangle.
    """
    g0 = make_graph([0, 1, 1], [(0, 1, 0), (1, 2, 1)])
    g1 = make_graph([0, 1, 1, 2], [(0, 1, 0), (1, 2, 1), (2, 3, 0)])
    g2 = make_graph(
        [0, 1, 1],
        [(0, 1, 0), (1, 2, 1), (2, 0, 1)],
    )
    return GraphDatabase.from_graphs([g0, g1, g2])


@pytest.fixture
def medium_db() -> GraphDatabase:
    return random_database(seed=42, num_graphs=12, n=8, extra_edges=2)
