"""Tests for the r-neighborhood decomposition (repro.biggraph.extract)."""

from __future__ import annotations

import random

import pytest

from repro.biggraph import NeighborhoodExtractor, neighborhood_vertices
from repro.graph.labeled_graph import LabeledGraph

from .conftest import make_graph, random_graph, star_graph


class TestNeighborhoodVertices:
    def test_pivot_first_then_levels_ascending(self):
        # 0-1, 0-3, 1-2: from pivot 0, level 1 = [1, 3], level 2 = [2].
        g = make_graph(
            [0, 0, 0, 0], [(0, 1, 0), (0, 3, 0), (1, 2, 0)]
        )
        assert neighborhood_vertices(g, 0, 0) == [0]
        assert neighborhood_vertices(g, 0, 1) == [0, 1, 3]
        assert neighborhood_vertices(g, 0, 2) == [0, 1, 3, 2]

    def test_saturates_at_component(self):
        g = make_graph([0, 0, 0], [(0, 1, 0)])  # vertex 2 isolated
        assert neighborhood_vertices(g, 0, 5) == [0, 1]
        assert neighborhood_vertices(g, 2, 5) == [2]

    def test_deterministic_pure_function(self):
        rng = random.Random(3)
        g = random_graph(rng, 30, extra_edges=15)
        for pivot in range(0, 30, 7):
            first = neighborhood_vertices(g, pivot, 2)
            assert first == neighborhood_vertices(g, pivot, 2)
            assert first[0] == pivot
            assert len(first) == len(set(first))

    def test_rejects_bad_input(self):
        g = make_graph([0], [])
        with pytest.raises(ValueError, match="pivot"):
            neighborhood_vertices(g, 5, 1)
        with pytest.raises(ValueError, match="radius"):
            neighborhood_vertices(g, 0, -1)


class TestNeighborhoodExtractor:
    def test_gid_is_pivot_and_unit_matches_order(self):
        rng = random.Random(7)
        g = random_graph(rng, 25, extra_edges=10)
        extractor = NeighborhoodExtractor(radius=1)
        db = extractor.extract(g)
        assert sorted(db.gids()) == list(range(25))
        for pivot in (0, 11, 24):
            order = neighborhood_vertices(g, pivot, 1)
            unit = db[pivot]
            assert unit.num_vertices == len(order)
            # local i carries the label of global order[i] — the
            # provenance contract the MNI fold recomputes from.
            for local, global_v in enumerate(order):
                assert unit.vertex_label(local) == g.vertex_label(
                    global_v
                )
            # Edges are exactly the induced ones.
            for lu, lv, elabel in unit.edges():
                assert g.edge_label(order[lu], order[lv]) == elabel

    def test_radius_zero_units_are_single_vertices(self):
        g = star_graph(4)
        db = NeighborhoodExtractor(radius=0).extract(g)
        assert all(unit.num_edges == 0 for _gid, unit in db)
        assert all(unit.num_vertices == 1 for _gid, unit in db)

    def test_pivot_labels_restrict_pivots(self):
        g = star_graph(4, center_label=9, leaf_label=1)
        extractor = NeighborhoodExtractor(
            radius=1, pivot_labels=frozenset({9})
        )
        assert extractor.pivots(g) == [0]
        db = extractor.extract(g)
        assert db.gids() == [0]
        assert db[0].num_edges == 4

    def test_extract_matches_per_pivot_unit(self):
        rng = random.Random(9)
        g = random_graph(rng, 40, extra_edges=20)
        extractor = NeighborhoodExtractor(radius=2)
        db = extractor.extract(g)
        from repro.graph.canonical import canonical_code

        for pivot in (0, 17, 39):
            assert canonical_code(db[pivot]) == canonical_code(
                extractor.unit(g, pivot)
            )

    def test_stats(self):
        g = star_graph(5)
        stats = NeighborhoodExtractor(radius=1).stats(
            NeighborhoodExtractor(radius=1).extract(g)
        )
        assert stats.pivots == 6
        assert stats.max_edges == 5  # the center's neighborhood
        assert stats.to_dict()["radius"] == 1
        assert stats.avg_edges == pytest.approx(10 / 6)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            NeighborhoodExtractor(radius=-1)
