"""Canonical orders are the automorphisms, and join overlays built from
them equal overlays built by the reference matcher.

:func:`~repro.graph.canonical.canonical_form` keeps every embedding that
realizes a graph's minimum DFS code as an *order* (code index -> vertex).
:func:`~repro.graph.operations.overlay_candidates` composes a donor core's
orders with the host core's first order instead of asking
:func:`~repro.graph.isomorphism.find_embeddings` for the core isomorphisms.
The matcher formulation stays here as the oracle.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.canonical import canonical_code, canonical_form, min_dfs_code
from repro.graph.isomorphism import find_embeddings
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import edge_deletion_cores, overlay_candidates

from .conftest import deletion_core_graph, permuted_copy, reads_code
from .test_canonical import connected_graphs


@st.composite
def symmetric_graphs(draw):
    """Stars, cycles and paths whose automorphism group is non-trivial."""
    kind = draw(st.sampled_from(["star", "cycle", "path"]))
    n = draw(st.integers(3 if kind == "cycle" else 2, 6))
    vlabel, elabel = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    graph = LabeledGraph()
    if kind == "star":
        graph.add_vertex(draw(st.integers(0, 1)))
        for _ in range(1, n):
            graph.add_edge(0, graph.add_vertex(vlabel), elabel)
        return graph
    for _ in range(n):
        graph.add_vertex(vlabel)
    for v in range(1, n):
        graph.add_edge(v - 1, v, elabel)
    if kind == "cycle":
        graph.add_edge(n - 1, 0, elabel)
    return graph


patterns = st.one_of(connected_graphs(max_vertices=6), symmetric_graphs())


@settings(max_examples=150, deadline=None)
@given(patterns)
def test_orders_are_the_automorphisms(graph):
    code = min_dfs_code(graph)
    key, orders = canonical_form(graph)
    assert key == code.sort_key() == canonical_code(graph.copy())
    assert len(set(orders)) == len(orders)
    for order in orders:
        assert sorted(order) == list(range(graph.num_vertices))
        assert reads_code(graph, order, code)
    assert len(orders) == len(list(find_embeddings(graph, graph)))


def isomorphisms_from_orders(donor, host):
    """Donor order ``i`` then host order 0, as parent-id mappings."""
    return {
        tuple(sorted(zip(order, host.orders[0]))) for order in donor.orders
    }


def isomorphisms_from_matcher(donor_graph, donor, host_graph, host):
    """The core isomorphisms the reference matcher finds, as parent-id
    mappings (core graphs number the kept parent vertices in order)."""
    donor_ids, host_ids = sorted(donor.orders[0]), sorted(host.orders[0])
    return {
        tuple(sorted((donor_ids[d], host_ids[h]) for d, h in phi.items()))
        for phi in find_embeddings(
            deletion_core_graph(donor_graph, donor),
            deletion_core_graph(host_graph, host),
        )
    }


def overlay_by_matcher(donor_graph, donor, host_graph, host, seen):
    """The overlay formulation the orders replaced: one attachment per
    isomorphism the matcher finds between the two core graphs."""
    candidates = []
    for mapping in sorted(
        isomorphisms_from_matcher(donor_graph, donor, host_graph, host)
    ):
        # One isomorphism as a single-order pair of cores.
        one = dataclasses.replace(
            donor, orders=(tuple(d for d, _ in mapping),)
        )
        onto = dataclasses.replace(
            host, orders=(tuple(h for _, h in mapping),)
        )
        candidates += overlay_candidates(one, onto, host_graph, seen)
    return candidates


@settings(max_examples=100, deadline=None)
@given(patterns, patterns, st.randoms(use_true_random=False))
def test_overlays_equal_the_matcher_formulation(first, second, rng):
    perm = list(range(first.num_vertices))
    rng.shuffle(perm)
    donors = [first, second]
    hosts = [first, permuted_copy(first, perm), second]
    pairs = 0
    for donor_graph in donors:
        for host_graph in hosts:
            for donor in edge_deletion_cores(donor_graph):
                for host in edge_deletion_cores(host_graph):
                    if donor.core_key != host.core_key:
                        continue
                    pairs += 1
                    assert isomorphisms_from_orders(
                        donor, host
                    ) == isomorphisms_from_matcher(
                        donor_graph, donor, host_graph, host
                    )
                    got_seen, want_seen = set(), set()
                    got = overlay_candidates(
                        donor, host, host_graph, got_seen
                    )
                    want = overlay_by_matcher(
                        donor_graph, donor, host_graph, host, want_seen
                    )
                    assert got_seen == want_seen
                    assert len(got) == len(want)
                    assert {canonical_code(c) for c in got} == {
                        canonical_code(c) for c in want
                    }
    if first.num_edges >= 2:
        assert pairs > 0  # a pattern always joins its own copies
