"""Tests for the update model, generator, and hot-set ufreq."""

import pytest

from repro.graph.database import GraphDatabase
from repro.updates.generator import UpdateGenerator
from repro.updates.model import (
    AddEdge,
    AddVertex,
    RelabelEdge,
    RelabelVertex,
    apply_update,
    apply_updates,
)
from repro.updates.tracker import hot_vertex_assignment

from .conftest import path_graph, random_database, triangle


class TestApplyUpdate:
    def test_relabel_vertex(self):
        db = GraphDatabase.from_graphs([triangle()])
        touched = apply_update(db, RelabelVertex(0, 1, 42))
        assert db[0].vertex_label(1) == 42
        assert touched == [1]

    def test_relabel_vertex_missing(self):
        db = GraphDatabase.from_graphs([triangle()])
        with pytest.raises(ValueError, match="no vertex"):
            apply_update(db, RelabelVertex(0, 9, 42))

    def test_relabel_edge(self):
        db = GraphDatabase.from_graphs([triangle()])
        touched = apply_update(db, RelabelEdge(0, 0, 1, 7))
        assert db[0].edge_label(0, 1) == 7
        assert sorted(touched) == [0, 1]

    def test_relabel_missing_edge(self):
        db = GraphDatabase.from_graphs([path_graph(3)])
        with pytest.raises(KeyError):
            apply_update(db, RelabelEdge(0, 0, 2, 7))

    def test_add_edge(self):
        db = GraphDatabase.from_graphs([path_graph(3)])
        apply_update(db, AddEdge(0, 0, 2, 5))
        assert db[0].edge_label(0, 2) == 5

    def test_add_duplicate_edge_rejected(self):
        db = GraphDatabase.from_graphs([triangle()])
        with pytest.raises(ValueError):
            apply_update(db, AddEdge(0, 0, 1, 5))

    def test_add_vertex(self):
        db = GraphDatabase.from_graphs([path_graph(2)])
        touched = apply_update(db, AddVertex(0, 9, 1, 3))
        assert db[0].num_vertices == 3
        assert db[0].vertex_label(2) == 9
        assert db[0].edge_label(2, 1) == 3
        assert 2 in touched and 1 in touched

    def test_unknown_gid(self):
        db = GraphDatabase.from_graphs([triangle()])
        with pytest.raises(KeyError):
            apply_update(db, RelabelVertex(7, 0, 1))


class TestApplyUpdates:
    def test_batch_groups_touched_by_gid(self):
        db = GraphDatabase.from_graphs([triangle(), path_graph(3)])
        touched = apply_updates(
            db,
            [
                RelabelVertex(0, 0, 5),
                RelabelVertex(0, 2, 5),
                AddEdge(1, 0, 2, 1),
            ],
        )
        assert touched[0] == {0, 2}
        assert touched[1] == {0, 2}

    def test_sequential_dependency(self):
        # AddVertex then an edge to the new vertex.
        db = GraphDatabase.from_graphs([path_graph(2)])
        apply_updates(
            db,
            [AddVertex(0, 1, 0, 0), AddEdge(0, 1, 2, 0)],
        )
        assert db[0].num_edges == 3


class TestHotVertexAssignment:
    def test_shape_and_range(self):
        db = random_database(seed=500, num_graphs=5)
        assignment = hot_vertex_assignment(db, hot_fraction=0.3, seed=1)
        for gid, graph in db:
            assert len(assignment[gid]) == graph.num_vertices
            assert all(0 < f <= 1 for f in assignment[gid])

    def test_hot_count(self):
        db = random_database(seed=501, num_graphs=5, n=8)
        assignment = hot_vertex_assignment(
            db, hot_fraction=0.25, hot_ufreq=1.0, cold_ufreq=0.0, seed=2
        )
        for gid, graph in db:
            hot = sum(1 for f in assignment[gid] if f == 1.0)
            assert hot == max(1, round(0.25 * graph.num_vertices))

    def test_deterministic_by_seed(self):
        db = random_database(seed=502, num_graphs=4)
        a = hot_vertex_assignment(db, seed=7)
        b = hot_vertex_assignment(db, seed=7)
        assert a == b

    def test_invalid_fraction(self):
        db = random_database(seed=502, num_graphs=2)
        with pytest.raises(ValueError):
            hot_vertex_assignment(db, hot_fraction=1.5)


class TestUpdateGenerator:
    def make(self, **kw):
        return UpdateGenerator(
            num_vertex_labels=3, num_edge_labels=2, seed=kw.pop("seed", 0), **kw
        )

    def test_fraction_controls_graph_count(self):
        db = random_database(seed=510, num_graphs=10)
        ufreq = hot_vertex_assignment(db, seed=1)
        updates = self.make().generate(db, ufreq, 0.5, ops_per_graph=1)
        assert len(updates) == 5
        assert len({u.gid for u in updates}) == 5

    def test_ops_per_graph(self):
        db = random_database(seed=511, num_graphs=4)
        ufreq = hot_vertex_assignment(db, seed=1)
        updates = self.make().generate(db, ufreq, 1.0, ops_per_graph=3)
        assert len(updates) == 12

    def test_relabel_kind_produces_only_relabels(self):
        db = random_database(seed=512, num_graphs=6)
        ufreq = hot_vertex_assignment(db, seed=1)
        updates = self.make().generate(db, ufreq, 1.0, 2, kind="relabel")
        assert all(
            isinstance(u, (RelabelVertex, RelabelEdge)) for u in updates
        )

    def test_structural_kind_produces_only_additions(self):
        db = random_database(seed=513, num_graphs=6)
        ufreq = hot_vertex_assignment(db, seed=1)
        updates = self.make().generate(db, ufreq, 1.0, 2, kind="structural")
        assert all(isinstance(u, (AddEdge, AddVertex)) for u in updates)

    def test_generated_batches_apply_cleanly(self):
        db = random_database(seed=514, num_graphs=8)
        ufreq = hot_vertex_assignment(db, seed=1)
        for kind in ("relabel", "structural", "mixed"):
            work = db.copy(deep=True)
            updates = self.make(seed=3).generate(work, ufreq, 0.8, 4, kind)
            apply_updates(work, updates)  # must not raise

    def test_invalid_kind(self):
        db = random_database(seed=515, num_graphs=2)
        with pytest.raises(ValueError, match="kind"):
            self.make().generate(db, {}, 0.5, 1, kind="nope")

    def test_invalid_fraction(self):
        db = random_database(seed=515, num_graphs=2)
        with pytest.raises(ValueError, match="fraction"):
            self.make().generate(db, {}, 1.5, 1)

    def test_deterministic_by_seed(self):
        db = random_database(seed=516, num_graphs=6)
        ufreq = hot_vertex_assignment(db, seed=1)
        a = self.make(seed=9).generate(db, ufreq, 0.5, 2)
        b = self.make(seed=9).generate(db, ufreq, 0.5, 2)
        assert a == b

    def test_hot_vertices_targeted_more(self):
        # With one extremely hot vertex, most relabels should hit it.
        db = GraphDatabase.from_graphs([path_graph(6)])
        ufreq = {0: (100.0, 0.0, 0.0, 0.0, 0.0, 0.0)}
        gen = self.make(seed=4)
        updates = []
        for _ in range(30):
            updates.extend(gen.generate(db, ufreq, 1.0, 1, "relabel"))
        hits = sum(
            1
            for u in updates
            if (isinstance(u, RelabelVertex) and u.vertex == 0)
            or (isinstance(u, RelabelEdge) and 0 in (u.u, u.v))
        )
        assert hits / len(updates) > 0.8
