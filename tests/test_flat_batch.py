"""Differential harness for the batched candidate-scan kernel.

:func:`repro.perf.batchscan.flat_count_batch` must agree, graph for
graph, with its single-pair form
:func:`repro.perf.batchscan.flat_contains` and with the recursive
reference matcher
(:func:`repro.graph.isomorphism.subgraph_exists_reference`) — across the
label regimes the kernel treats specially, under both monomorphic
and induced semantics, for whole-database and subset scans.

On top of verdict parity the suite locks down the kernel's contracts:

* **minsup early exit** is verdict-sound: the frequent/infrequent call
  against ``minsup`` always matches an exhaustive scan, hit lists are
  exactly right whenever the scan reports ``exact=True``, every hit is a
  true hit even when it does not, and ``hits + undecided`` always covers
  the true TID set (nothing is silently dropped);
* **arena reuse** leaves no state behind: interleaving many patterns
  and databases through one :class:`~repro.perf.batchscan.ScanArena`
  yields the same answers as fresh state, and the used-vertex mask is
  all-zero between scans;
* the FlatDB **admit memos** are weakly keyed and capped, so retired
  plans cannot pin memory (the PR-7 leak fix).

:func:`repro.perf.batchscan.flat_embeddings`, the enumerating sibling,
is pinned against :func:`repro.graph.isomorphism.find_embeddings` as a
*set of mappings* — rooted plans, root lists and the ``within`` pruning
hook included — and held to the same clean-mask invariant, also when an
enumeration is abandoned half way.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings

from repro.graph.database import GraphDatabase
from repro.graph.isomorphism import (
    count_support,
    find_embeddings,
    subgraph_exists_reference,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.perf.batchscan import (
    ScanArena,
    flat_contains,
    flat_count_batch,
    flat_embeddings,
    local_arena,
)
from repro.perf.fastmatch import FlatPlan, get_flat_plan
from repro.perf.flatgraph import (
    ADMIT_MEMO_PLANS,
    FlatDB,
    FlatGraph,
    get_flat_db,
)

from .conftest import make_graph, path_graph, random_graph, star_graph
from .test_properties import connected_graphs

REGIMES = {
    # name: (seed, vertex labels, edge labels), label-poor -> label-heavy
    "label-poor": (101, 1, 1),
    "balanced": (202, 3, 2),
    "label-heavy": (303, 8, 5),
}


def random_database(rng, graphs, vlabels, elabels):
    return GraphDatabase(
        (
            gid,
            random_graph(
                rng,
                rng.randint(2, 9),
                extra_edges=rng.randint(0, 4),
                num_vertex_labels=vlabels,
                num_edge_labels=elabels,
            ),
        )
        for gid in range(graphs)
    )


def reference_tids(pattern, database, induced=False):
    return sorted(
        gid
        for gid, graph in database
        if subgraph_exists_reference(pattern, graph, induced=induced)
    )


def batch_agrees(pattern, database, gids=None, induced=False, arena=None):
    """One scan, three matchers, one verdict — the suite's core check."""
    flat = get_flat_db(database)
    plan = get_flat_plan(pattern)
    scan = flat_count_batch(
        plan, flat, gids, induced=induced, arena=arena
    )
    pool = database.gids() if gids is None else [
        g for g in gids if g in database
    ]
    want_ref = [
        g
        for g in pool
        if subgraph_exists_reference(
            pattern, database[g], induced=induced
        )
    ]
    want_flat = [
        g
        for g in pool
        if flat_contains(plan, flat.get(g), induced=induced)
    ]
    assert want_flat == want_ref
    assert scan.exact and not scan.undecided
    assert scan.hits == want_ref
    assert scan.support == len(want_ref)
    assert scan.hits == sorted(scan.hits)
    return scan


# ----------------------------------------------------------------------
# Randomized differential sweep
# ----------------------------------------------------------------------
class TestBatchDifferential:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_full_scan(self, regime):
        seed, vlabels, elabels = REGIMES[regime]
        rng = random.Random(seed)
        db = random_database(rng, 25, vlabels, elabels)
        for trial in range(30):
            pattern = random_graph(
                rng,
                rng.randint(2, 5),
                extra_edges=rng.randint(0, 2),
                num_vertex_labels=vlabels,
                num_edge_labels=elabels,
            )
            for induced in (False, True):
                batch_agrees(pattern, db, induced=induced)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_subset_scan(self, regime):
        """Explicit gid lists: subsets, gids absent from the database,
        and the empty list."""
        seed, vlabels, elabels = REGIMES[regime]
        rng = random.Random(seed ^ 0x5B5)
        db = random_database(rng, 20, vlabels, elabels)
        for trial in range(20):
            pattern = random_graph(
                rng,
                rng.randint(2, 4),
                extra_edges=rng.randint(0, 2),
                num_vertex_labels=vlabels,
                num_edge_labels=elabels,
            )
            subset = sorted(
                rng.sample(db.gids(), rng.randint(0, len(db)))
            )
            with_ghosts = sorted(subset + [777, 888])  # silently skipped
            batch_agrees(pattern, db, gids=subset)
            scan = batch_agrees(pattern, db, gids=with_ghosts)
            assert 777 not in scan.hits and 888 not in scan.hits

    @settings(max_examples=40, deadline=None)
    @given(
        connected_graphs(max_vertices=5, vlabels=3, elabels=2),
        connected_graphs(max_vertices=8, vlabels=3, elabels=2),
        connected_graphs(max_vertices=8, vlabels=3, elabels=2),
    )
    def test_hypothesis_differential(self, pattern, target_a, target_b):
        db = GraphDatabase([(0, target_a), (1, target_b)])
        for induced in (False, True):
            batch_agrees(pattern, db, induced=induced)

    def test_empty_pattern_matches_everything(self):
        db = GraphDatabase((i, path_graph(i + 2)) for i in range(4))
        scan = flat_count_batch(
            get_flat_plan(LabeledGraph()), get_flat_db(db)
        )
        assert scan.hits == db.gids()
        scan = flat_count_batch(
            get_flat_plan(LabeledGraph()), get_flat_db(db), [1, 3, 9]
        )
        assert scan.hits == [1, 3]

    def test_single_vertex_pattern(self):
        db = GraphDatabase(
            [(0, make_graph([0, 1], [(0, 1, 0)])), (1, make_graph([1], []))]
        )
        scan = batch_agrees(make_graph([1], []), db)
        assert scan.hits == [0, 1]
        assert batch_agrees(make_graph([7], []), db).hits == []


# ----------------------------------------------------------------------
# minsup / need_tids early-exit soundness
# ----------------------------------------------------------------------
class TestEarlyExit:
    def _sweep(self, seed, need_tids):
        rng = random.Random(seed)
        db = random_database(rng, 30, 3, 2)
        flat = get_flat_db(db)
        for trial in range(40):
            pattern = random_graph(
                rng,
                rng.randint(2, 5),
                extra_edges=rng.randint(0, 2),
                num_vertex_labels=3,
                num_edge_labels=2,
            )
            plan = get_flat_plan(pattern)
            truth = reference_tids(pattern, db)
            exhaustive = flat_count_batch(plan, flat)
            assert exhaustive.hits == truth
            for minsup in (1, 2, len(truth), len(truth) + 1, len(db) + 5):
                scan = flat_count_batch(
                    plan, flat, minsup=minsup, need_tids=need_tids
                )
                # The frequency verdict is always exact.
                assert (scan.support >= minsup) == (len(truth) >= minsup), (
                    trial, minsup, need_tids
                )
                # Hits are always true hits, in ascending order.
                assert scan.hits == sorted(scan.hits)
                assert set(scan.hits) <= set(truth)
                # Nothing vanishes: every true hit is found or undecided.
                assert set(truth) <= set(scan.hits) | set(scan.undecided)
                if scan.exact:
                    assert scan.hits == truth and not scan.undecided
                if need_tids and len(truth) >= minsup:
                    # Frequent + need_tids: the TID set must be complete.
                    assert scan.exact and scan.hits == truth

    def test_need_tids_scan_exact_when_frequent(self):
        self._sweep(0xEA51, need_tids=True)

    def test_no_tids_stops_at_frequency(self):
        self._sweep(0xEA52, need_tids=False)

    def test_hopeless_scan_skips_all_searches(self):
        """minsup above the admitted count: zero searches entered."""
        db = GraphDatabase((i, path_graph(4)) for i in range(5))
        scan = flat_count_batch(
            get_flat_plan(path_graph(3)), get_flat_db(db), minsup=9
        )
        assert scan.searched == 0 and not scan.exact
        assert scan.hits == [] and len(scan.undecided) == 5

    def test_no_tids_early_stop_spares_searches(self):
        db = GraphDatabase((i, path_graph(5)) for i in range(20))
        scan = flat_count_batch(
            get_flat_plan(path_graph(3)),
            get_flat_db(db),
            minsup=3,
            need_tids=False,
        )
        assert scan.support == 3 and scan.searched == 3
        assert not scan.exact and len(scan.undecided) == 17

    def test_count_support_minsup_verdicts(self):
        """count_support with minsup: partial TIDs only below minsup,
        exact TIDs at or above it."""
        rng = random.Random(0xC0DE)
        db = random_database(rng, 25, 3, 2)
        for trial in range(25):
            pattern = random_graph(
                rng,
                rng.randint(2, 4),
                extra_edges=rng.randint(0, 2),
                num_vertex_labels=3,
                num_edge_labels=2,
            )
            truth = reference_tids(pattern, db)
            for minsup in (0, 1, len(truth), len(truth) + 2):
                support, tids = count_support(pattern, db, minsup=minsup)
                if len(truth) >= minsup:
                    assert sorted(tids) == truth
                else:
                    assert support < minsup
                    assert set(tids) <= set(truth)


# ----------------------------------------------------------------------
# The enumerating kernel
# ----------------------------------------------------------------------
def reference_mappings(pattern, target):
    return {
        tuple(sorted(mapping.items()))
        for mapping in find_embeddings(pattern, target)
    }


def kernel_mappings(pattern, target, start=None, **kwargs):
    plan = FlatPlan(pattern, start=start)
    order, n = plan.order, plan.n
    found = [
        tuple(sorted(zip(order, assigned[:n])))
        for assigned in flat_embeddings(
            plan, FlatGraph.from_labeled(target), **kwargs
        )
    ]
    assert len(found) == len(set(found)), "an embedding was yielded twice"
    return set(found)


class TestEmbeddingEnumeration:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_same_mappings_as_reference(self, regime):
        seed, vlabels, elabels = REGIMES[regime]
        rng = random.Random(seed ^ 0xE1)
        arena = ScanArena()
        for trial in range(40):
            target = random_graph(
                rng, rng.randint(3, 12), extra_edges=rng.randint(0, 8),
                num_vertex_labels=vlabels, num_edge_labels=elabels,
            )
            # Chords give depths with more than one anchor.
            pattern = random_graph(
                rng, rng.randint(1, 5), extra_edges=rng.randint(0, 3),
                num_vertex_labels=vlabels, num_edge_labels=elabels,
            )
            expected = reference_mappings(pattern, target)
            assert kernel_mappings(pattern, target, arena=arena) == expected
            start = rng.randrange(pattern.num_vertices)
            assert (
                kernel_mappings(pattern, target, start, arena=arena)
                == expected
            )
            assert not any(arena.used), "mask left dirty"

    def test_root_list_restricts_depth_zero(self):
        rng = random.Random(77)
        target = random_graph(rng, 14, extra_edges=10, num_vertex_labels=2)
        pattern = path_graph(3, vlabel=0)
        pattern.set_vertex_label(1, 1)
        roots = [v for v in range(14) if v % 2]  # labels are filtered
        for start in range(3):
            expected = {
                mapping
                for mapping in reference_mappings(pattern, target)
                if dict(mapping)[start] in roots
            }
            assert (
                kernel_mappings(pattern, target, start, roots=roots)
                == expected
            )
        assert kernel_mappings(pattern, target, 0, roots=[]) == set()

    def test_within_prunes_subtrees(self):
        rng = random.Random(5)
        target = random_graph(rng, 12, extra_edges=9, num_vertex_labels=1)
        pattern = path_graph(4)
        asked = []

        def within(depth, vertex):
            asked.append(depth)
            return vertex != 3

        expected = {
            mapping
            for mapping in reference_mappings(pattern, target)
            if 3 not in dict(mapping).values()
        }
        arena = ScanArena()
        assert (
            kernel_mappings(pattern, target, arena=arena, within=within)
            == expected
        )
        assert set(asked) == {0, 1, 2, 3}
        assert not any(arena.used)

    def test_degenerate_patterns(self):
        target = make_graph([0, 1, 1], [(0, 1, 0), (0, 2, 0)])
        assert kernel_mappings(make_graph([1], []), target) == {
            ((0, 1),), ((0, 2),),
        }
        assert kernel_mappings(make_graph([7], []), target) == set()
        absent = make_graph([0, 1], [(0, 1, 9)])  # edge label never seen
        assert kernel_mappings(absent, target) == set()
        assert kernel_mappings(LabeledGraph(), target) == {()}

    def test_abandoned_enumeration_leaves_mask_clean(self):
        arena = ScanArena()
        target = FlatGraph.from_labeled(star_graph(6))
        plan = FlatPlan(star_graph(3))
        walk = flat_embeddings(plan, target, arena=arena)
        next(walk)
        assert any(arena.used)  # suspended mid-descent
        walk.close()
        assert not any(arena.used)
        assert sum(1 for _ in flat_embeddings(plan, target, arena=arena)) == (
            6 * 5 * 4
        )


# ----------------------------------------------------------------------
# Arena reuse
# ----------------------------------------------------------------------
class TestArenaReuse:
    def test_no_state_bleed_across_patterns_and_databases(self):
        """One arena, many plans and databases, interleaved — answers
        must match fresh-arena scans and the mask must stay clean."""
        rng = random.Random(0xA12E)
        arena = ScanArena()
        dbs = [random_database(rng, 12, v, e) for v, e in ((1, 1), (4, 3))]
        jobs = []
        for db in dbs:
            for _ in range(10):
                jobs.append(
                    (
                        db,
                        random_graph(
                            rng,
                            rng.randint(2, 5),
                            extra_edges=rng.randint(0, 2),
                            num_vertex_labels=4,
                            num_edge_labels=3,
                        ),
                        bool(rng.getrandbits(1)),
                    )
                )
        rng.shuffle(jobs)
        for db, pattern, induced in jobs:
            batch_agrees(pattern, db, induced=induced, arena=arena)
            assert not any(arena.used), "mask left dirty between scans"

    def test_arena_grows_to_largest_seen(self):
        arena = ScanArena()
        arena.reserve(3, 10)
        assert len(arena.assigned) == 3 and len(arena.used) == 10
        arena.reserve(5, 4)  # grows depths, keeps the larger mask
        assert len(arena.assigned) == 5 and len(arena.used) == 10
        buf = arena.used
        arena.reserve(2, 10)  # no growth: same buffer object
        assert arena.used is buf

    def test_local_arena_is_per_thread_singleton(self):
        import threading

        assert local_arena() is local_arena()
        other = []
        t = threading.Thread(target=lambda: other.append(local_arena()))
        t.start()
        t.join()
        assert other[0] is not local_arena()


# ----------------------------------------------------------------------
# Admit-memo lifecycle: the full-database scan memo
# ----------------------------------------------------------------------
class TestAdmitMemoLifecycle:
    def test_dead_plans_drop_their_memos(self):
        """The memo keys plans weakly: a retired plan's entry must
        vanish with it instead of pinning the FlatDB forever."""
        db = GraphDatabase((i, path_graph(4)) for i in range(3))
        flat = get_flat_db(db)
        pattern = path_graph(3)
        plan = get_flat_plan(pattern)
        flat_count_batch(plan, flat)
        assert plan in flat.scan_memo
        del plan, pattern  # the plan cache is weak too
        gc.collect()
        assert len(flat.scan_memo) == 0

    def test_memo_cap_drops_wholesale(self):
        flat = FlatDB([], {})
        keep = []  # hold the plans alive so only the cap can evict
        for i in range(ADMIT_MEMO_PLANS):
            g = make_graph([i], [])
            keep.append((g, get_flat_plan(g)))
            flat_count_batch(keep[-1][1], flat)
        assert len(flat.scan_memo) == ADMIT_MEMO_PLANS
        g = make_graph(["overflow"], [])
        overflow = get_flat_plan(g)
        flat_count_batch(overflow, flat)
        assert len(flat.scan_memo) == 1
        assert overflow in flat.scan_memo

    def test_database_version_change_recompiles(self):
        """Mutating a graph retires the whole FlatDB (and its memos):
        the next scan sees a fresh compilation, never a stale admit."""
        db = GraphDatabase([(0, path_graph(4))])
        flat = get_flat_db(db)
        pattern = path_graph(3)
        assert flat_count_batch(get_flat_plan(pattern), flat).hits == [0]
        db[0].set_vertex_label(0, 99)  # version bump
        fresh = get_flat_db(db)
        assert fresh is not flat
        scan = flat_count_batch(get_flat_plan(pattern), fresh)
        assert scan.hits == reference_tids(pattern, db)
