"""Cross-semantics invariants: induced vs monomorphic mining."""

from hypothesis import given, settings

from repro.graph.isomorphism import count_support, subgraph_exists

from .test_properties import connected_graphs, databases


class TestInducedVsMonomorphic:
    @settings(max_examples=15, deadline=None)
    @given(databases(max_graphs=5, max_vertices=5), connected_graphs(max_vertices=4))
    def test_induced_support_never_exceeds_monomorphic(self, db, pattern):
        induced_support, induced_tids = count_support(
            pattern, db, induced=True
        )
        plain_support, plain_tids = count_support(pattern, db)
        assert induced_tids <= plain_tids
        assert induced_support <= plain_support

    def test_complete_patterns_agree_across_semantics(self):
        """For a pattern as dense as its occurrences allow (a full
        triangle inside triangle-only graphs), both semantics coincide."""
        from repro.graph.database import GraphDatabase

        from .conftest import triangle

        db = GraphDatabase.from_graphs([triangle(), triangle()])
        plain = count_support(triangle(), db)
        induced = count_support(triangle(), db, induced=True)
        assert plain == induced == (2, {0, 1})

    @settings(max_examples=20, deadline=None)
    @given(connected_graphs(max_vertices=5))
    def test_induced_reflexive(self, graph):
        assert subgraph_exists(graph, graph, induced=True)
