"""Tests for DBPartition and the partition tree."""

import pytest

from repro.partition.dbpartition import db_partition
from repro.partition.graphpart import GraphPartitioner

from .conftest import random_database


class TestTreeShape:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_unit_count(self, k):
        db = random_database(seed=1, num_graphs=6)
        tree = db_partition(db, k)
        assert len(tree.units()) == k
        assert tree.k == k

    def test_k1_tree_is_root_only(self):
        db = random_database(seed=1, num_graphs=3)
        tree = db_partition(db, 1)
        assert tree.root.is_leaf
        assert tree.units() == [tree.root]

    def test_root_holds_the_database_and_no_identity_maps(self):
        db = random_database(seed=1, num_graphs=3)
        tree = db_partition(db, 3)
        assert tree.root.database is db
        assert tree.root.orig_vertices == {}
        for node in tree.nodes():
            if node.depth:
                assert node.orig_vertices.keys() == set(db.gids())

    def test_power_of_two_depths_uniform(self):
        db = random_database(seed=2, num_graphs=4)
        tree = db_partition(db, 4)
        assert {u.depth for u in tree.units()} == {2}

    def test_non_power_of_two_depths(self):
        db = random_database(seed=2, num_graphs=4)
        tree = db_partition(db, 3)
        depths = sorted(u.depth for u in tree.units())
        assert depths == [1, 2, 2]

    def test_invalid_k(self):
        db = random_database(seed=3, num_graphs=2)
        with pytest.raises(ValueError):
            db_partition(db, 0)

    def test_nodes_preorder_count(self):
        db = random_database(seed=3, num_graphs=2)
        tree = db_partition(db, 4)
        # Full binary tree with 4 leaves: 7 nodes.
        assert len(list(tree.nodes())) == 7


class TestUnitContents:
    def test_every_unit_has_every_gid(self):
        db = random_database(seed=4, num_graphs=8)
        tree = db_partition(db, 4)
        for unit in tree.units():
            assert sorted(unit.database.gids()) == sorted(db.gids())

    def test_edge_union_recovers_database(self):
        db = random_database(seed=5, num_graphs=6)
        tree = db_partition(db, 5)
        for gid, graph in db:
            recovered = set()
            for unit in tree.units():
                piece = unit.database[gid]
                orig = unit.orig_vertices[gid]
                for u, v, label in piece.edges():
                    ou, ov = orig[u], orig[v]
                    recovered.add((min(ou, ov), max(ou, ov), label))
            original = {
                (min(u, v), max(u, v), label)
                for u, v, label in graph.edges()
            }
            assert recovered == original

    def test_orig_vertices_consistent_labels(self):
        db = random_database(seed=6, num_graphs=4)
        tree = db_partition(db, 4)
        for unit in tree.units():
            for gid, piece in unit.database:
                orig = unit.orig_vertices[gid]
                for v in piece.vertices():
                    assert piece.vertex_label(v) == db[gid].vertex_label(
                        orig[v]
                    )

    def test_support_threshold_scaling(self):
        db = random_database(seed=7, num_graphs=4)
        tree = db_partition(db, 4)
        assert tree.root.support_threshold(8) == 8
        for unit in tree.units():
            assert unit.support_threshold(8) == 2  # 8 / 2^2
        assert tree.root.support_threshold(1) == 1

    def test_ufreq_validation(self):
        db = random_database(seed=8, num_graphs=3)
        with pytest.raises(ValueError, match="ufreq"):
            db_partition(db, 2, ufreq={0: (0.0,)})


def units_holding(tree, gid, root_vertex_ids):
    """Indices of the units whose piece of ``gid`` holds any of the ids."""
    wanted = set(root_vertex_ids)
    return {
        i
        for i, unit in enumerate(tree.units())
        if wanted.intersection(unit.orig_vertices.get(gid, ()))
    }


class TestUnitLookup:
    def test_unit_index_of_vertices(self):
        db = random_database(seed=9, num_graphs=4)
        tree = db_partition(db, 4)
        gid = db.gids()[0]
        all_vertices = list(range(db[gid].num_vertices))
        hits = units_holding(tree, gid, all_vertices)
        assert hits  # every vertex lives somewhere
        assert hits <= set(range(4))

    def test_boundary_vertex_in_multiple_units(self):
        db = random_database(seed=10, num_graphs=3)
        tree = db_partition(db, 2)
        gid = db.gids()[0]
        graph = db[gid]
        # A connective edge endpoint must appear in both units.  The root
        # graph's vertex ids are the root ids, so its own split's cut
        # names them.
        root_cut = GraphPartitioner()(
            graph, (0.0,) * graph.num_vertices
        ).connective_edges
        assert tree.root.connective_edges[gid] == len(root_cut)
        if root_cut:
            u = root_cut[0][0]
            assert len(units_holding(tree, gid, [u])) == 2

    def test_total_connective_edges_counts_all_levels(self):
        db = random_database(seed=11, num_graphs=4)
        t2 = db_partition(db, 2)
        t4 = db_partition(db, 4)
        assert t4.total_connective_edges() >= t2.total_connective_edges()


class TestRecommendedK:
    def test_fits_in_one_unit(self):
        from repro.partition.dbpartition import recommended_k

        db = random_database(seed=13, num_graphs=4)
        assert recommended_k(db, db.total_edges() * 2) == 1

    def test_scales_with_budget(self):
        from repro.partition.dbpartition import recommended_k

        db = random_database(seed=14, num_graphs=8)
        total = db.total_edges()
        small_budget = recommended_k(db, max(1, total // 4))
        large_budget = recommended_k(db, total)
        assert small_budget > large_budget

    def test_units_respect_budget_roughly(self):
        from repro.partition.dbpartition import db_partition, recommended_k

        db = random_database(seed=15, num_graphs=10, n=8, extra_edges=3)
        budget = db.total_edges() // 3
        k = recommended_k(db, budget)
        tree = db_partition(db, k)
        for unit in tree.units():
            # Connective-edge duplication is heavy on small dense graphs
            # (every split copies its cut edges into both sides), so the
            # budget is honored only up to that duplication factor.
            assert unit.database.total_edges() <= 3.0 * budget

    def test_invalid_budget(self):
        import pytest as _pytest

        from repro.partition.dbpartition import recommended_k

        db = random_database(seed=16, num_graphs=2)
        with _pytest.raises(ValueError):
            recommended_k(db, 0)
