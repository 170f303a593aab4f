"""Tests for edge-deletion cores and overlay candidate generation."""

import random

from repro.graph.canonical import canonical_code, min_dfs_code
from repro.graph.isomorphism import subgraph_exists
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import edge_deletion_cores, overlay_candidates

from .conftest import (
    deletion_core_graph,
    make_graph,
    path_graph,
    random_graph,
    reads_code,
    star_graph,
    triangle,
)


class TestEdgeDeletionCores:
    def test_single_edge_has_no_cores(self):
        assert edge_deletion_cores(LabeledGraph.single_edge(0, 0, 1)) == []

    def test_path_cores(self):
        cores = edge_deletion_cores(path_graph(3))
        # Both deletions leave a single connected edge (other endpoint
        # dropped), so both produce a core.
        assert len(cores) == 2
        for core in cores:
            assert len(core.core_key) == 1  # one code entry per core edge
            assert core.other is None  # deleting a path end isolates it

    def test_triangle_cores(self):
        cores = edge_deletion_cores(triangle())
        assert len(cores) == 3
        for core in cores:
            assert len(core.core_key) == 2
            assert core.other is not None  # no vertex is isolated

    def test_disconnecting_deletion_skipped(self):
        # Two triangles joined by a bridge: deleting the bridge disconnects.
        g = make_graph(
            [0] * 6,
            [
                (0, 1, 0), (1, 2, 0), (2, 0, 0),
                (2, 3, 0),
                (3, 4, 0), (4, 5, 0), (5, 3, 0),
            ],
        )
        cores = edge_deletion_cores(g)
        assert len(cores) == 6  # 7 edges, bridge deletion yields no core

    def test_core_mapping_back_to_parent(self):
        g = triangle(labels=(10, 20, 30))
        for core in edge_deletion_cores(g):
            code = min_dfs_code(deletion_core_graph(g, core))
            for order in core.orders:
                # Every order reads the core's code off the parent's ids,
                # and the removed edge is not one of the code's edges.
                assert reads_code(g, order, code)
                assert {core.anchor, core.other} not in [
                    {order[i], order[j]} for i, j, *_ in code.edges
                ]

    def test_core_key_is_canonical(self):
        for core in edge_deletion_cores(triangle()):
            graph = deletion_core_graph(triangle(), core)
            assert core.core_key == canonical_code(graph)


class TestOverlayCandidates:
    def test_triangle_from_two_paths(self):
        """Self-joining two 2-edge paths must produce the triangle."""
        p = path_graph(3)
        cores_p = edge_deletion_cores(p)
        produced = set()
        for donor in cores_p:
            for host in cores_p:
                for cand in overlay_candidates(donor, host, p):
                    produced.add(canonical_code(cand))
        assert canonical_code(triangle()) in produced
        assert canonical_code(path_graph(4)) in produced
        assert (
            canonical_code(star_graph(3, center_label=0, leaf_label=0))
            in produced
        )

    def test_mismatched_cores_give_nothing(self):
        a = path_graph(3, vlabel=0)
        b = path_graph(3, vlabel=1)
        for donor in edge_deletion_cores(a):
            for host in edge_deletion_cores(b):
                assert overlay_candidates(donor, host, b) == []

    def test_candidates_have_one_more_edge(self):
        rng = random.Random(3)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(3, 6), 1)
            cores = edge_deletion_cores(g)
            for donor in cores:
                for host in cores:
                    if donor.core_key != host.core_key:
                        continue
                    for cand in overlay_candidates(donor, host, g):
                        assert cand.num_edges == g.num_edges + 1

    def test_candidates_contain_host(self):
        rng = random.Random(4)
        g = random_graph(rng, 5, 2)
        cores = edge_deletion_cores(g)
        for donor in cores:
            for host in cores:
                if donor.core_key != host.core_key:
                    continue
                for cand in overlay_candidates(donor, host, g):
                    assert subgraph_exists(g, cand)


class TestJoinCompleteness:
    """FSG completeness: every connected (k+1)-graph arises from a join of
    two of its k-subgraphs over a shared connected core."""

    def test_every_graph_is_self_joinable_from_subgraphs(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(3, 7), 2)
            if g.num_edges < 3:
                continue
            target_key = canonical_code(g)
            # All (k-1)-edge connected subgraphs by single deletion:
            parents = []
            for u, v, _ in list(g.edges()):
                work = g.copy()
                work.remove_edge(u, v)
                keep = [w for w in work.vertices() if work.degree(w) > 0]
                sub = work.induced_subgraph(keep)
                if sub.is_connected() and sub.num_edges == g.num_edges - 1:
                    parents.append(sub)
            assert len(parents) >= 2, "lemma: >=2 connected deletions"
            produced = set()
            for p in parents:
                cores_p = edge_deletion_cores(p)
                for q in parents:
                    cores_q = edge_deletion_cores(q)
                    for donor in cores_p:
                        for host in cores_q:
                            for cand in overlay_candidates(donor, host, q):
                                produced.add(canonical_code(cand))
            assert target_key in produced
