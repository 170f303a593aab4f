"""Differential harness for the production kernel's existence verdicts.

The single-pair entry (:func:`repro.graph.isomorphism.subgraph_exists`
with the layer on: cached flat plan + cached flat target +
:func:`repro.perf.batchscan.flat_contains`) and the database scan
(:func:`repro.perf.batchscan.flat_count_batch`) must agree with the
recursive reference matcher
(:func:`repro.graph.isomorphism.subgraph_exists_reference`) on *every*
pattern/target pair, under both monomorphic and induced semantics.  The
randomized sweep here covers several hundred pairs across regimes the
kernel treats specially:

* **label-heavy** graphs (many distinct vertex/edge labels — small
  ``runs`` sub-runs, unanchored ``by_label`` seeds are selective);
* **label-poor** graphs (one label — sub-runs span whole rows, maximal
  backtracking);
* **disconnected patterns** (a later component's first position has no
  anchor, exercising the unanchored re-seed mid-search);
* patterns larger than the target, empty patterns, single vertices.

All graphs are self-edge-free (``LabeledGraph`` forbids loops), so the
kernel never needs a ``cand != anchor`` guard — the differential sweep
would catch it if that assumption broke.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import (
    _match_order,
    subgraph_exists,
    subgraph_exists_reference,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.perf.batchscan import flat_contains, flat_count_batch
from repro.perf.counters import COUNTERS
from repro.perf.fastmatch import FlatPlan, get_flat_plan
from repro.perf.flatgraph import INTERNER, FlatGraph, get_flat_db

from .conftest import make_graph, path_graph, random_graph, star_graph
from .test_properties import connected_graphs


def random_pattern(rng, max_n, vlabels, elabels, p_extra=0.3):
    """A small random pattern; may be disconnected (no spanning tree)."""
    n = rng.randint(1, max_n)
    graph = LabeledGraph()
    for _ in range(n):
        graph.add_vertex(rng.randrange(vlabels))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_extra:
                graph.add_edge(u, v, rng.randrange(elabels))
    return graph


def all_matchers_agree(pattern, target, context=""):
    """The assertion at the heart of the suite: the reference matcher
    and both kernel entries, both semantics, one verdict."""
    flat_db = get_flat_db(GraphDatabase.from_graphs([target]))
    for induced in (False, True):
        want = subgraph_exists_reference(pattern, target, induced=induced)
        got_pair = subgraph_exists(pattern, target, induced=induced)
        got_batch = flat_count_batch(
            get_flat_plan(pattern), flat_db, induced=induced
        ).hits
        assert got_pair == want, f"single pair {context} induced={induced}"
        assert got_batch == [0] * want, f"batch {context} induced={induced}"


# ----------------------------------------------------------------------
# The randomized differential sweep (~200+ pairs per regime set)
# ----------------------------------------------------------------------
REGIMES = {
    # name: (seed, vertex labels, edge labels), label-poor -> label-heavy
    "label-poor": (1001, 1, 1),
    "balanced": (2002, 3, 2),
    "label-heavy": (3003, 8, 5),
}


class TestRandomizedDifferential:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_connected_patterns(self, regime):
        seed, vlabels, elabels = REGIMES[regime]
        rng = random.Random(seed)
        for trial in range(80):
            target = random_graph(
                rng,
                rng.randint(2, 9),
                extra_edges=rng.randint(0, 4),
                num_vertex_labels=vlabels,
                num_edge_labels=elabels,
            )
            pattern = random_graph(
                rng,
                rng.randint(2, 5),
                extra_edges=rng.randint(0, 2),
                num_vertex_labels=vlabels,
                num_edge_labels=elabels,
            )
            all_matchers_agree(pattern, target, f"{regime}#{trial}")

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_disconnected_patterns(self, regime):
        """Patterns with multiple components: the matcher must re-seed
        from the label index mid-search and respect injectivity across
        components."""
        seed, vlabels, elabels = REGIMES[regime]
        rng = random.Random(0xD15C + seed)
        for trial in range(60):
            target = random_graph(
                rng,
                rng.randint(3, 9),
                extra_edges=rng.randint(0, 3),
                num_vertex_labels=vlabels,
                num_edge_labels=elabels,
            )
            pattern = random_pattern(rng, 5, vlabels, elabels)
            all_matchers_agree(pattern, target, f"disc-{regime}#{trial}")

    def test_pattern_embedded_by_construction(self):
        """Positive cases: the pattern is an exact subgraph of the
        target, so every matcher must say yes (monomorphic)."""
        rng = random.Random(0xE0B)
        for trial in range(40):
            target = random_graph(
                rng, rng.randint(3, 8), extra_edges=rng.randint(0, 3)
            )
            keep = rng.sample(
                range(target.num_vertices), rng.randint(2, 3)
            )
            remap = {v: i for i, v in enumerate(keep)}
            pattern = LabeledGraph()
            for v in keep:
                pattern.add_vertex(target.vertex_label(v))
            for u, v, label in target.edges():
                if u in remap and v in remap:
                    pattern.add_edge(remap[u], remap[v], label)
            flat_target = FlatGraph.from_labeled(target)
            assert flat_contains(get_flat_plan(pattern), flat_target), trial
            all_matchers_agree(pattern, target, f"embed#{trial}")

    @settings(max_examples=50, deadline=None)
    @given(
        connected_graphs(max_vertices=5, vlabels=3, elabels=2),
        connected_graphs(max_vertices=8, vlabels=3, elabels=2),
    )
    def test_hypothesis_differential(self, pattern, target):
        all_matchers_agree(pattern, target, "hypothesis")


# ----------------------------------------------------------------------
# Corner cases
# ----------------------------------------------------------------------
class TestCornerCases:
    def test_empty_pattern_matches_everything(self):
        target = FlatGraph.from_labeled(path_graph(3))
        assert flat_contains(get_flat_plan(LabeledGraph()), target)

    def test_single_vertex(self):
        target = FlatGraph.from_labeled(make_graph([0, 1], [(0, 1, 0)]))
        assert flat_contains(get_flat_plan(make_graph([1], [])), target)
        assert not flat_contains(get_flat_plan(make_graph([7], [])), target)

    def test_pattern_larger_than_target_short_circuits(self):
        target = FlatGraph.from_labeled(path_graph(2))
        searches = COUNTERS.flat_searches
        assert not flat_contains(get_flat_plan(path_graph(5)), target)
        assert COUNTERS.flat_searches == searches  # rejected pre-search

    def test_star_needs_degree(self):
        """Degree pruning: a 4-star cannot embed in a 3-star."""
        big = star_graph(4)
        small = FlatGraph.from_labeled(star_graph(3))
        assert not flat_contains(get_flat_plan(big), small)
        assert flat_contains(
            get_flat_plan(star_graph(3)), FlatGraph.from_labeled(big)
        )

    def test_induced_vs_monomorphic_divergence(self):
        """P3 embeds in a triangle monomorphically but not induced —
        the canonical semantic split both matchers must reproduce."""
        p3 = path_graph(3)
        triangle = make_graph(
            [0, 0, 0], [(0, 1, 0), (1, 2, 0), (0, 2, 0)]
        )
        flat_tri = FlatGraph.from_labeled(triangle)
        plan = get_flat_plan(p3)
        assert flat_contains(plan, flat_tri, induced=False)
        assert not flat_contains(plan, flat_tri, induced=True)

    def test_counters_track_searches(self):
        target = FlatGraph.from_labeled(path_graph(4))
        plan = get_flat_plan(path_graph(3))
        vf2 = COUNTERS.vf2_calls
        flat = COUNTERS.flat_searches
        assert flat_contains(plan, target)
        assert COUNTERS.vf2_calls == vf2 + 1
        assert COUNTERS.flat_searches == flat + 1


# ----------------------------------------------------------------------
# Plan compilation and the unmatchable-plan revalidation hazard
# ----------------------------------------------------------------------
class TestFlatPlanLifecycle:
    def test_plan_cached_per_version(self):
        pattern = path_graph(3)
        plan = get_flat_plan(pattern)
        assert get_flat_plan(pattern) is plan
        pattern.set_vertex_label(0, 1)  # version bump
        assert get_flat_plan(pattern) is not plan

    def test_unmatchable_plan_revalidates_when_interner_grows(self):
        """A pattern whose label predates any flat graph is unmatchable
        *now* — but compiling a database that introduces the label must
        transparently recompile the plan, or the matcher would silently
        return False forever (the staleness hazard)."""
        rare = f"rare-label-{random.randrange(10 ** 9)}"
        pattern = make_graph([rare, rare], [(0, 1, 0)])
        INTERNER.intern(0)  # the edge label is known; the vertex label not
        plan = get_flat_plan(pattern)
        assert plan.unmatchable

        target = make_graph([rare, rare, rare], [(0, 1, 0), (1, 2, 0)])
        flat_target = FlatGraph.from_labeled(target)  # interns `rare`
        refreshed = get_flat_plan(pattern)
        assert refreshed is not plan
        assert not refreshed.unmatchable
        assert flat_contains(refreshed, flat_target)

    def test_unmatchable_plan_stays_cached_until_growth(self):
        rare = f"rare-label-{random.randrange(10 ** 9)}"
        pattern = make_graph([rare], [])
        plan = get_flat_plan(pattern)
        assert plan.unmatchable
        assert get_flat_plan(pattern) is plan  # no growth -> same object

    def test_flat_plan_mirrors_pattern_shape(self):
        pattern = random_graph(random.Random(5), 5, extra_edges=2)
        plan = FlatPlan(pattern)
        assert plan.order == tuple(_match_order(pattern))
        assert plan.n == plan.num_vertices == pattern.num_vertices
        assert plan.num_edges == pattern.num_edges
        assert len(plan.vlabs) == plan.n
        assert len(plan.aptr) == plan.n + 1
        assert len(plan.apos) == len(plan.aelab) == plan.aptr[-1]
        assert len(plan.nptr) == plan.n + 1
        # Every edge is an anchor of its later end; every non-adjacent
        # pair a non-adjacency constraint of its later end.
        n = plan.n
        assert plan.aptr[-1] == pattern.num_edges
        assert plan.nptr[-1] == n * (n - 1) // 2 - pattern.num_edges
        placed = {v: p for p, v in enumerate(plan.order)}
        for depth, v in enumerate(plan.order):
            earlier = sum(placed[w] < depth for w in pattern.neighbor_ids(v))
            assert plan.aptr[depth + 1] - plan.aptr[depth] == earlier
            assert plan.mindeg[depth] == pattern.degree(v)
