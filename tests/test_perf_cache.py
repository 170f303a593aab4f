"""The shared support cache: reuse, invalidation, and lifecycle.

The cache's promise (see :mod:`repro.perf.cache`) is that it may be shared
across merge levels, across whole re-mines, and across update batches —
and still never serve a stale verdict.  These tests exercise exactly the
sharing patterns the miners use, comparing against cache-free runs.
"""

import gc
import sys
import threading

from hypothesis import example, given, settings, strategies as st

from repro import perf
from repro.core.incremental import IncrementalPartMiner
from repro.core.join import SupportCounter
from repro.core.mergejoin import MergeJoinStats, merge_join
from repro.core.partminer import PartMiner
from repro.graph.database import GraphDatabase
from repro.graph.labeled_graph import LabeledGraph
from repro.mining.edges import edge_triple_index, frequent_edges
from repro.mining.gaston import GastonMiner
from repro.partition.dbpartition import db_partition
from repro.updates.generator import UpdateGenerator
from repro.updates.model import RelabelVertex

from .test_properties import connected_graphs, databases


def path_graph(labels, elabel=0):
    graph = LabeledGraph()
    for label in labels:
        graph.add_vertex(label)
    for v in range(1, len(labels)):
        graph.add_edge(v - 1, v, elabel)
    return graph


def pattern_maps(patterns):
    return {p.key: (p.support, p.tids) for p in patterns}


def unit_merge(db):
    """PartMiner's phases for ``k=2`` at unit support 1, with the merge
    left to the caller: ``merge(threshold, cache, stats)`` runs the root
    merge-join again over the same graph instances, handing it ``cache``
    — the ``support_cache=`` parameter a long-lived cache's owner uses."""
    tree = db_partition(db, 2)
    left, right = (
        GastonMiner().mine(unit.database, 1) for unit in tree.units()
    )

    def merge(threshold, cache=None, stats=None):
        return merge_join(
            tree.root.database, left, right, threshold,
            stats=stats, support_cache=cache,
        )

    return merge


# ----------------------------------------------------------------------
# Unit behaviour
# ----------------------------------------------------------------------
class TestSupportCacheUnit:
    def test_version_bump_invalidates(self):
        cache = perf.SupportCache()
        graph = path_graph([0, 1, 2])
        cache.put(("k",), graph, True)
        assert cache.get(("k",), graph) is True
        graph.set_vertex_label(0, 9)  # bumps graph.version
        assert cache.get(("k",), graph) is None
        assert cache.invalidated == 1
        cache.put(("k",), graph, False)
        assert cache.get(("k",), graph) is False

    def test_induced_and_plain_verdicts_are_distinct(self):
        cache = perf.SupportCache()
        graph = path_graph([0, 1])
        cache.put(("k",), graph, True, induced=False)
        assert cache.get(("k",), graph, induced=True) is None
        cache.put(("k",), graph, False, induced=True)
        assert cache.get(("k",), graph, induced=False) is True
        assert cache.get(("k",), graph, induced=True) is False

    def test_dead_graphs_release_entries(self):
        cache = perf.SupportCache()
        graph = path_graph([0, 1, 2])
        cache.put(("k",), graph, True)
        assert cache.entries() == 1
        del graph
        gc.collect()
        assert cache.entries() == 0

    def test_stats_digest(self):
        cache = perf.SupportCache()
        graph = path_graph([0, 1])
        cache.put(("k",), graph, True)
        cache.get(("k",), graph)
        cache.get(("other",), graph)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["entries"] == 1
        assert stats["approx_bytes"] > 0
        assert stats["hit_rate"] == 0.5

    def test_clear(self):
        cache = perf.SupportCache()
        graph = path_graph([0, 1])
        cache.put(("k",), graph, True)
        cache.clear()
        assert cache.entries() == 0
        assert cache.get(("k",), graph) is None

    def test_threads_share_one_cache(self):
        """The serving engine's threads probe and fill one cache while
        /stats reads it, with no outer lock: no reader may trip over a
        concurrent insert, and every get and put must be tallied."""
        cache = perf.SupportCache()
        graphs = [path_graph([0, i % 3]) for i in range(400)]
        writers, errors = 6, []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def write(t):
                for i, graph in enumerate(graphs):
                    key = ("k", (t + i) % 5)
                    if cache.get(key, graph) is None:
                        cache.put(key, graph, True)

            def read():
                while any(thread.is_alive() for thread in threads[1:]):
                    try:
                        cache.stats()
                    except RuntimeError as exc:  # dict changed size
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=read)] + [
                threading.Thread(target=write, args=(t,))
                for t in range(writers)
            ]
            for thread in threads[1:] + threads[:1]:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert cache.hits + cache.misses == writers * len(graphs)
        assert cache.stores == cache.misses
        assert cache.entries() == 5 * len(graphs)  # every (key, graph)


# ----------------------------------------------------------------------
# Batched probe/store: the same as one get/put per pair
# ----------------------------------------------------------------------
#: A batch pairs keys[i] with graphs[i], or broadcasts a one-element side.
_SHAPES = st.sampled_from(["one-key", "one-graph", "zip"])
_PICKS = st.lists(st.integers(0, 2), min_size=1, max_size=4)
_VERDICTS = st.lists(st.booleans(), min_size=4, max_size=4)
_BATCH_OPS = st.one_of(
    st.tuples(st.just("store"), _SHAPES, _PICKS, _VERDICTS, st.booleans()),
    st.tuples(st.just("probe"), _SHAPES, _PICKS, st.none(), st.booleans()),
    st.tuples(st.just("mutate"), st.integers(0, 2)),
    st.tuples(st.just("bump")),
    st.tuples(st.just("clear")),
)


def _batch_pairs(shape, picks):
    """(keys, graphs) index lists for one batch, and its expanded pairs."""
    if shape == "one-key":
        keys, graphs = picks[:1], picks
        return keys, graphs, [(picks[0], g) for g in picks]
    if shape == "one-graph":
        keys, graphs = picks, picks[:1]
        return keys, graphs, [(k, picks[0]) for k in picks]
    return picks, picks[::-1], list(zip(picks, picks[::-1]))


class TestBatchedCalls:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_BATCH_OPS, max_size=25))
    def test_batches_equal_per_pair_calls(self, ops):
        from repro.perf._state import bump_token

        keys = [("k", 0), ("k", 1), ("k", 2, "long")]
        graphs = [path_graph([0, 1]), path_graph([1, 2, 0]), path_graph([2])]
        batched, single = perf.SupportCache(), perf.SupportCache()
        for op in ops:
            if op[0] == "mutate":
                graph = graphs[op[1]]
                graph.set_vertex_label(0, graph.vertex_label(0) + 1)
            elif op[0] == "bump":
                bump_token()
            elif op[0] == "clear":
                batched.clear()
                single.clear()
            else:
                kind, shape, picks, verdicts, induced = op
                ks, gs, pairs = _batch_pairs(shape, picks)
                key_list = [keys[i] for i in ks]
                graph_list = [graphs[i] for i in gs]
                if kind == "store":
                    batched.store(
                        key_list, graph_list, verdicts[: len(pairs)], induced
                    )
                    for (k, g), verdict in zip(pairs, verdicts):
                        single.put(keys[k], graphs[g], verdict, induced)
                else:
                    got = batched.probe(key_list, graph_list, induced)
                    want = [
                        single.get(keys[k], graphs[g], induced)
                        for k, g in pairs
                    ]
                    assert got == want
            for counter in ("hits", "misses", "stores", "invalidated"):
                assert getattr(batched, counter) == getattr(single, counter)
            assert batched.entries() == single.entries()

    def test_one_probe_flushes_each_counter_once(self, monkeypatch):
        from repro.perf import cache as cache_module

        calls = []

        class Recorder:
            def inc(self, name, amount=1):
                calls.append((name, amount))

        monkeypatch.setattr(cache_module, "COUNTERS", Recorder())
        cache = perf.SupportCache()
        graphs = [path_graph([0, i]) for i in range(5)]
        cache.store([("k",)], graphs[:3], [True, False, True])
        assert cache.probe([("k",)], graphs) == [True, False, True, None, None]
        assert calls == [
            ("support_cache_stores", 3),
            ("support_cache_hits", 3),
            ("support_cache_misses", 2),
        ]


# ----------------------------------------------------------------------
# Cross-run reuse
# ----------------------------------------------------------------------
class TestCrossRunReuse:
    @settings(max_examples=8, deadline=None)
    @given(databases(max_graphs=6, max_vertices=5))
    def test_repeated_mine_shares_verdicts(self, db):
        cache = perf.SupportCache()
        merge = unit_merge(db)
        first = merge(2, cache)
        hits_after_first = cache.hits
        second = merge(2, cache)
        assert pattern_maps(first) == pattern_maps(second)
        assert pattern_maps(first) == pattern_maps(merge(2))
        # Nothing changed between runs, so the second merge found its
        # verdicts memoized whenever the first one tested any.
        if cache.misses > 0:
            assert cache.hits > hits_after_first

    @settings(max_examples=6, deadline=None)
    @given(
        databases(max_graphs=7, max_vertices=5),
        st.integers(0, 2 ** 31),
        st.integers(1, 2),
    )
    def test_incremental_reuse_stays_correct_after_updates(
        self, db, seed, batches
    ):
        """The acceleration layer never corrupts an incremental session.

        The accelerated session carries its flat compilations across
        batches (only replaced graphs are recompiled); the baseline
        session runs with the layer disabled.  After every batch — whose
        swapped-in graphs and re-partitions replace piece instances —
        the pattern sets must match exactly.
        """
        accel = IncrementalPartMiner(k=2, max_size=4)
        accel.initial_mine(db, 2)
        with perf.disabled():
            baseline = IncrementalPartMiner(k=2, max_size=4)
            baseline.initial_mine(db, 2)
        assert pattern_maps(accel.current_patterns) == pattern_maps(
            baseline.current_patterns
        )
        generator = UpdateGenerator(
            num_vertex_labels=4, num_edge_labels=2, seed=seed
        )
        for _ in range(batches):
            updates = generator.generate(
                accel.database, accel.ufreq, fraction_graphs=0.5,
                ops_per_graph=2,
            )
            got = accel.apply_updates(updates)
            with perf.disabled():
                want = baseline.apply_updates(updates)
            assert pattern_maps(got.patterns) == pattern_maps(want.patterns)

    def test_explicit_cache_is_used_and_survives(self):
        db = GraphDatabase.from_graphs(
            [path_graph([0, 1, 2, 1]) for _ in range(4)]
            + [path_graph([0, 2, 2]) for _ in range(3)]
        )
        cache = perf.SupportCache()
        unit_merge(db)(2, cache)
        assert cache.stores > 0
        assert cache.entries() > 0

    def test_attached_cache_is_reported_in_the_digest(self):
        """``MergeJoinStats`` reports what the attached cache served."""
        db = GraphDatabase.from_graphs(
            [path_graph([0, 1, 2, 1]) for _ in range(4)]
            + [path_graph([0, 2, 2]) for _ in range(3)]
        )
        cache = perf.SupportCache()
        merge = unit_merge(db)
        first, second = MergeJoinStats(), MergeJoinStats()
        merge(2, cache, first)
        merge(2, cache, second)
        assert first.support_cache_hits == 0
        assert first.support_cache_misses > 0
        assert second.support_cache_hits > 0
        assert cache.hits == second.support_cache_hits
        assert cache.misses == (
            first.support_cache_misses + second.support_cache_misses
        )


# ----------------------------------------------------------------------
# Who owns a cache: whoever passes one in — no miner creates its own
# ----------------------------------------------------------------------
class TestCacheOwnership:
    def database(self):
        return GraphDatabase.from_graphs(
            [path_graph([0, 1, 2, 1]) for _ in range(4)]
            + [path_graph([0, 2, 2]) for _ in range(3)]
        )

    def test_static_mine_creates_no_cache(self):
        before = perf.snapshot()
        PartMiner(k=2).mine(self.database(), 2)
        work = perf.delta_since(before)
        assert work.support_cache_hits == 0
        assert work.support_cache_misses == 0
        assert work.support_cache_stores == 0

    def test_incremental_miner_owns_no_cache(self):
        """Delta counting re-tests only replaced graphs, whose verdicts a
        version-keyed cache could never serve: the session keeps none."""
        before = perf.snapshot()
        miner = IncrementalPartMiner(k=2)
        miner.initial_mine(self.database(), 2)
        miner.apply_updates([RelabelVertex(gid=6, vertex=0, new_label=1)])
        work = perf.delta_since(before)
        assert work.support_cache_hits == 0
        assert work.support_cache_misses == 0
        assert work.support_cache_stores == 0


class TestTripleIndex:
    """``merge_join`` reads ``P^1(S)`` off the counter's triple index."""

    @settings(max_examples=40, deadline=None)
    @given(databases(max_graphs=6, max_vertices=6), st.integers(1, 4))
    @example(
        # Parallel triples: one graph carries the same triple three
        # times, and both orientations of an unequal-label edge.
        GraphDatabase.from_graphs(
            [path_graph([0, 1, 0, 1]), path_graph([1, 0]),
             path_graph([2, 2, 2], elabel=1)]
        ),
        1,
    )
    def test_index_matches_the_direct_scan(self, db, threshold):
        want = frequent_edges(db, threshold)
        assert SupportCounter(db).frequent_edges(threshold) == want
        with perf.disabled():
            assert SupportCounter(db).frequent_edges(threshold) == want

    def test_index_is_built_once_per_flat_db(self):
        db = GraphDatabase.from_graphs(
            [path_graph([0, 1, 2]), path_graph([1, 0])]
        )
        flat = perf.get_flat_db(db)
        index = flat.edge_triple_index()
        assert index == edge_triple_index(db)
        assert flat.edge_triple_index() is index
        assert SupportCounter(db)._triple_index is index
        # A mutated database compiles to a new FlatDB, hence a new index.
        db[1].set_vertex_label(0, 2)
        rebuilt = SupportCounter(db)._triple_index
        assert rebuilt == edge_triple_index(db) != index


# ----------------------------------------------------------------------
# Cache + matcher agreement under mutation
# ----------------------------------------------------------------------
class TestMutationSafety:
    @settings(max_examples=30, deadline=None)
    @given(
        connected_graphs(max_vertices=6),
        connected_graphs(max_vertices=4),
        st.integers(0, 3),
    )
    def test_cached_verdict_tracks_mutations(self, target, pattern, label):
        from repro.graph.canonical import canonical_code
        from repro.graph.isomorphism import subgraph_exists_reference

        cache = perf.SupportCache()
        key = canonical_code(pattern)
        cache.put(key, target, subgraph_exists_reference(pattern, target))
        target.set_vertex_label(0, 90 + label)
        verdict = cache.get(key, target)
        if verdict is not None:  # fresh entries only
            assert verdict == subgraph_exists_reference(pattern, target)
        else:
            assert cache.invalidated == 1


# ----------------------------------------------------------------------
# Accel-state token: mode flips must never serve stale verdicts
# ----------------------------------------------------------------------
class TestAccelTokenInvalidation:
    """Entries are stamped with the accel-state token as well as the
    graph version (the regression: a verdict computed by one matcher
    implementation surviving a mid-process ``--no-accel`` flip and
    being served as if the other matcher had produced it)."""

    def test_accel_toggle_invalidates_entries(self):
        cache = perf.SupportCache()
        graph = path_graph([0, 1, 2])
        cache.put(("k",), graph, False)
        assert cache.get(("k",), graph) is False
        with perf.disabled():
            # Inside the flipped mode the old-epoch entry is dead...
            assert cache.get(("k",), graph) is None
        # ...and stays dead after restoring (the token is monotonic:
        # there is no way back into a previous epoch).
        assert cache.get(("k",), graph) is None

    def test_entries_written_inside_a_mode_die_with_it(self):
        cache = perf.SupportCache()
        graph = path_graph([0, 1])
        with perf.disabled():
            cache.put(("k",), graph, True)
            assert cache.get(("k",), graph) is True
        assert cache.get(("k",), graph) is None

    def test_stable_mode_keeps_entries(self):
        cache = perf.SupportCache()
        graph = path_graph([0, 1])
        cache.put(("k",), graph, True)
        assert cache.get(("k",), graph) is True  # no flip, no invalidation
        assert cache.get(("k",), graph) is True

    def test_shared_cache_across_modes_stays_correct(self):
        """End-to-end regression: one long-lived cache carried across
        runs in different accel modes must not corrupt any of them."""
        db = GraphDatabase.from_graphs(
            [path_graph([0, 1, 2]), path_graph([0, 1, 2]),
             path_graph([1, 2, 0])]
        )
        cache = perf.SupportCache()
        merge = unit_merge(db)
        kernel_run = merge(2, cache)
        with perf.disabled():
            off_run = merge(2, cache)
        final_run = merge(2, cache)
        assert pattern_maps(kernel_run) == pattern_maps(off_run)
        assert pattern_maps(kernel_run) == pattern_maps(final_run)
