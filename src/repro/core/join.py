"""Pattern-level join for the merge-join operation (paper, Section 4.3).

Two ``k``-edge patterns *join* when they share a ``(k-1)``-edge connected
core; every way of overlaying them on a shared core yields a ``(k+1)``-edge
candidate.  This is the FSG-style join the paper's ``Join(P, F)`` steps
perform, seeded at the bottom by joining 2-edge patterns over a shared
(connective) edge.

Support counting of candidates happens against the level dataset through
:class:`SupportCounter`, which prunes with a per-level edge-triple index and
seeds with TID lists inherited from the children.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Mapping

from .. import perf
from ..graph.canonical import canonical_code
from ..graph.database import GraphDatabase
from ..graph.isomorphism import scan_support
from ..graph.labeled_graph import LabeledGraph
from ..graph.operations import (
    DeletionCore,
    edge_deletion_cores,
    overlay_candidates,
)
from ..mining.base import Pattern, PatternKey
from ..mining.edges import (
    EdgeTriple,
    FrequentEdge,
    edge_triple_index,
    frequent_in_index,
    normalize_triple,
)
from ..perf.counters import COUNTERS

# Edge triples are recomputed for the same pattern graph at every level it
# is carried to and in every merge round; the version-stamped weak cache
# makes each graph pay once per mutation.
_TRIPLES_CACHE: "weakref.WeakKeyDictionary[LabeledGraph, tuple]"
_TRIPLES_CACHE = weakref.WeakKeyDictionary()


def pattern_edge_triples(graph: LabeledGraph) -> frozenset[EdgeTriple]:
    """The normalized label triples of a pattern's edges (memoized)."""
    entry = _TRIPLES_CACHE.get(graph)
    if entry is not None and entry[0] == graph.version:
        return entry[1]
    triples = frozenset(
        normalize_triple(graph.vertex_label(u), elabel, graph.vertex_label(v))
        for u, v, elabel in graph.edges()
    )
    _TRIPLES_CACHE[graph] = (graph.version, triples)
    return triples


class SupportCounter:
    """Support counting against one level dataset with cheap pruning.

    Builds an edge-triple -> gid index once; a pattern's support is then
    counted only over graphs containing all of its edge triples, seeded by
    TID lists already known from child levels (a piece's supporting graph
    also supports the pattern at the parent level).  The surviving
    candidates go through
    :func:`~repro.graph.isomorphism.scan_support`, the counting routine
    :func:`~repro.graph.isomorphism.count_support` runs too.

    With the acceleration layer on — read once, at construction: a
    counter lives for one merge — the level dataset is compiled to a
    :class:`~repro.perf.FlatDB` and read once: the triple index comes
    off the compiled CSR arrays, and the batched kernel (which applies
    the admit prefilter through the FlatDB's memo) never fetches a
    graph.  An optional :class:`~repro.perf.SupportCache` memoizes
    per-graph containment verdicts under the pattern's canonical key.
    The cache is keyed by graph *instance*, so it pays only for an owner
    that re-tests the same instances (repeated mines of one database);
    over a store-backed dataset (``database.state_token() is not None``)
    decoded graphs are transient — an entry could never be found again
    and every probe would cost a row decode — so an attached cache is
    ignored.  With the layer off the reference matcher dereferences
    ``database[gid]`` per test and no cache is consulted.
    """

    def __init__(
        self,
        database: GraphDatabase,
        cache: "perf.SupportCache | None" = None,
    ) -> None:
        self.database = database
        if cache is not None and database.state_token() is not None:
            cache = None
        self.cache = cache
        # The level dataset's flat compilation (cached on the database
        # instance, version-validated); None selects the reference
        # matcher.
        self._flat = perf.get_flat_db(database) if perf.enabled() else None
        # One scan arena for the counter's lifetime: every batched count
        # at this level reuses the same preallocated matcher state
        # instead of building per-call lists (see repro.perf.batchscan).
        self._arena = perf.ScanArena()
        # With the kernel on the index comes off the compiled arrays
        # (shared, read-only) instead of a second database pass.
        self._triple_index = (
            self._flat.edge_triple_index()
            if self._flat is not None
            else edge_triple_index(database)
        )
        self.isomorphism_tests = 0  # graphs submitted to an existence check
        self.vf2_tests = 0  # backtracking searches actually entered
        self.fingerprint_rejects = 0  # candidates killed by the admit filter
        self.cache_hits = 0
        self.cache_misses = 0

    def frequent_edges(self, threshold: int) -> list[FrequentEdge]:
        """``P^1(S)`` read off the triple index, sorted by triple.

        Equal to :func:`repro.mining.edges.frequent_edges` over the
        level dataset, without scanning it again.
        """
        return frequent_in_index(self._triple_index, threshold)

    def candidate_gids(self, pattern: LabeledGraph) -> set[int]:
        """Gids of the graphs holding every edge triple of ``pattern``.

        An edge-free pattern has no triple to filter on: every gid comes
        back and the matcher checks the vertex labels.
        """
        candidates: set[int] | None = None
        for triple in pattern_edge_triples(pattern):
            gids = self._triple_index.get(triple)
            if not gids:
                return set()
            candidates = set(gids) if candidates is None else candidates & gids
            if not candidates:
                return set()
        return candidates if candidates is not None else set(
            self.database.gids()
        )

    def count(
        self,
        pattern: LabeledGraph,
        known_tids: frozenset[int] = frozenset(),
        restrict: frozenset[int] | None = None,
        key: PatternKey | None = None,
        minsup: int = 0,
        induced: bool = False,
    ) -> tuple[int, frozenset[int]]:
        """Support of ``pattern`` in the level dataset.

        ``known_tids`` must be gids already known to contain the pattern
        (e.g. from child-level TID lists); they are not re-tested.
        ``restrict`` is a sound upper bound on the supporting set (e.g. the
        intersection of the level supports of a join candidate's two
        generators) — graphs outside it are skipped entirely.  ``key`` is
        the pattern's canonical key, used to address the shared support
        cache; when omitted it is derived on demand.

        ``minsup`` (kernel only) lets the scan stop as soon as the
        pattern provably cannot reach that support: the returned TID
        set is then a subset of the true one, but the frequent/infrequent
        verdict against ``minsup`` is always exact, and a set that *does*
        reach ``minsup`` is always complete.  Callers that need the full
        TID set of infrequent patterns must pass 0 (the default).
        ``induced`` switches to induced-subgraph semantics (the triple
        filter is sound for both: an induced embedding is a monomorphism).
        """
        supporting = set(known_tids)
        untested = self.candidate_gids(pattern)
        untested -= supporting
        if restrict is not None:
            untested &= restrict
        if untested:
            # The reference matcher keeps no tallies of its own.
            before = COUNTERS.vf2_calls if self._flat is None else 0
            scan, cache_hits = scan_support(
                pattern,
                self.database,
                sorted(untested),
                self._flat,
                supporting,
                induced=induced,
                cache=self.cache,
                key=key,
                minsup=minsup,
                arena=self._arena,
            )
            if scan is None:
                self.isomorphism_tests += len(untested)
                self.vf2_tests += COUNTERS.vf2_calls - before
            else:
                self.isomorphism_tests += scan.searched
                self.vf2_tests += scan.searched
                self.fingerprint_rejects += scan.rejected
                if self.cache is not None:
                    self.cache_hits += cache_hits
                    self.cache_misses += len(untested) - cache_hits
        return len(supporting), frozenset(supporting)


# Deletion cores are pure functions of a pattern's canonical key; the same
# patterns are join inputs over and over (across levels, nodes and update
# batches), so the cores — and the exact graph instance they index into —
# are memoized globally.
_CORE_CACHE: dict[
    PatternKey, tuple[LabeledGraph, list[DeletionCore]]
] = {}
_CORE_CACHE_LIMIT = 100_000


def cached_deletion_cores(
    pattern: Pattern,
) -> tuple[LabeledGraph, list[DeletionCore]]:
    """Memoized ``(graph, edge_deletion_cores(graph))`` for a pattern.

    The returned graph is the instance the cores' vertex ids refer to —
    overlays must use it (it may be an isomorphic earlier copy, which is
    fine: everything downstream is canonicalized).
    """
    entry = _CORE_CACHE.get(pattern.key)
    if entry is None:
        if len(_CORE_CACHE) >= _CORE_CACHE_LIMIT:
            _CORE_CACHE.clear()
        entry = (pattern.graph, edge_deletion_cores(pattern.graph))
        _CORE_CACHE[pattern.key] = entry
    return entry


def join_patterns(
    left: Iterable[Pattern],
    right: Iterable[Pattern],
    seen: set[PatternKey] | None = None,
    min_bound: int = 0,
    touched: Mapping[int, frozenset[EdgeTriple]] | None = None,
) -> dict[PatternKey, tuple[LabeledGraph, frozenset[int]]]:
    """All ``(k+1)``-edge join candidates of two ``k``-edge pattern sets.

    Joins every cross pair (both directions, including self pairs when the
    same pattern appears on both sides) over every shared connected
    ``(k-1)``-edge core.  Candidates whose canonical key is in ``seen`` are
    skipped; the returned mapping is deduplicated by canonical key.

    Each candidate carries a **TID bound**: the intersection of one
    generating pair's TID lists.  When the inputs carry level-exact TIDs,
    a candidate's level support is a subset of *every* generating pair's
    intersection (a supergraph is supported only where both generators
    are), so any one bound is sound for restricted support counting.

    ``min_bound`` applies the candidate-count upper bound of Geerts,
    Goethals & Van den Bussche (cs/0112007), transferred to TID space:
    a core-compatible pair whose TID intersection falls below it cannot
    generate a candidate whose support reaches it, so the pair's
    overlays are skipped **before** any canonicalization.  Sound only
    when the inputs carry level-exact TIDs and every pattern of the
    level is present on some input side (merge_join guarantees both);
    the default 0 disables the prune.

    ``touched`` is the incremental restriction (IncPartMiner): the caller
    vouches that every cross pair was already joined at this level before
    the update batch that changed the graphs ``touched`` — each candidate
    is in ``seen`` or was infrequent then.  It maps each changed gid to
    the label triples of its new or re-labelled edges: a candidate can
    have gained an occurrence only in a changed graph that holds both
    generators, through an edge whose triple one of them has, and pairs
    without such a graph are skipped before any overlay.
    """
    seen = seen if seen is not None else set()
    left_list = list(left)
    right_list = list(right)
    if not left_list or not right_list:
        return {}

    # Index deletion cores by canonical core key so only core-compatible
    # pairs are ever touched (FSG's join organization).
    def core_index(patterns: list[Pattern]):
        graphs: list[LabeledGraph] = []
        index: dict[tuple, list[tuple[int, DeletionCore]]] = {}
        for i, pattern in enumerate(patterns):
            graph, cores = cached_deletion_cores(pattern)
            graphs.append(graph)
            for core in cores:
                index.setdefault(core.core_key, []).append((i, core))
        return graphs, index

    left_graphs, left_index = core_index(left_list)
    right_graphs, right_index = core_index(right_list)

    candidates: dict[PatternKey, tuple[LabeledGraph, frozenset[int]]] = {}
    pair_bounds: dict[tuple[int, int], frozenset[int]] = {}
    # One edge-addition signature set per host instance: symmetric cores
    # and multiple compatible pairs regenerate identical candidates, and
    # the signature kills them before any canonicalization.
    left_signatures: dict[int, set] = {}
    right_signatures: dict[int, set] = {}

    def record(candidate: LabeledGraph, bound: frozenset[int]) -> None:
        key = canonical_code(candidate)
        if key in seen or key in candidates:
            return
        candidates[key] = (candidate, bound)

    for core_key in left_index.keys() & right_index.keys():
        for i, left_core in left_index[core_key]:
            for j, right_core in right_index[core_key]:
                bound = pair_bounds.get((i, j))
                if bound is None:
                    bound = left_list[i].tids & right_list[j].tids
                    pair_bounds[(i, j)] = bound
                if not bound:
                    continue  # both generators never co-occur
                if len(bound) < min_bound:
                    # cs/0112007 bound: a frequent candidate's support is
                    # contained in EVERY generating pair's intersection,
                    # so this pair cannot contribute one.
                    COUNTERS.inc("join_pairs_pruned")
                    continue
                if touched is not None:
                    triples = pattern_edge_triples(
                        left_graphs[i]
                    ) | pattern_edge_triples(right_graphs[j])
                    if not any(
                        touched[gid] & triples
                        for gid in bound.intersection(touched)
                    ):
                        pair_bounds[(i, j)] = frozenset()
                        COUNTERS.inc("join_pairs_untouched")
                        continue
                for candidate in overlay_candidates(
                    left_core,
                    right_core,
                    right_graphs[j],
                    right_signatures.setdefault(j, set()),
                ):
                    record(candidate, bound)
                for candidate in overlay_candidates(
                    right_core,
                    left_core,
                    left_graphs[i],
                    left_signatures.setdefault(i, set()),
                ):
                    record(candidate, bound)
    return candidates


def join_single_edges(
    left: Iterable[Pattern],
    right: Iterable[Pattern],
    seen: set[PatternKey] | None = None,
) -> dict[PatternKey, LabeledGraph]:
    """Join 1-edge patterns sharing a vertex label into 2-edge candidates.

    Not used by the paper's MergeJoin (2-edge sets are unioned directly,
    which is complete because both sides keep the connective edges), but
    exposed for experimentation and for the ablation benchmarks.
    """
    seen = seen if seen is not None else set()
    candidates: dict[PatternKey, LabeledGraph] = {}
    for p in left:
        (pu, pv, pe), = list(p.graph.edges())
        for q in right:
            (qu, qv, qe), = list(q.graph.edges())
            for a in (pu, pv):
                for b in (qu, qv):
                    if p.graph.vertex_label(a) != q.graph.vertex_label(b):
                        continue
                    candidate = p.graph.copy()
                    other = qv if b == qu else qu
                    new_vertex = candidate.add_vertex(
                        q.graph.vertex_label(other)
                    )
                    candidate.add_edge(a, new_vertex, qe)
                    key = canonical_code(candidate)
                    if key not in seen and key not in candidates:
                        candidates[key] = candidate
    return candidates
