"""MergeJoin: recovering a level's frequent patterns from its two children.

Implements the ``MergeJoin`` procedure of the paper's Fig 11:

1. ``P^1(S)`` comes from the one pass over the level dataset that builds
   the :class:`~repro.core.join.SupportCounter` (its edge-triple index);
2. patterns carried from the children are pruned with the Apriori property
   against ``P^1(S)`` (Fig 11 lines 2-3);
3. 2-edge patterns are unioned (complete, because connective edges live in
   both sides) and joined into the first candidate set ``C^3``;
4. level-wise, candidates come from ``Join(P^k(S0), F^k)``,
   ``Join(P^k(S1), F^k)`` and ``Join(F^k, F^k)`` — plus, unless
   ``strict_paper_joins`` is set, the fourth combination
   ``Join(P^k(S0), P^k(S1))`` which the paper's pseudo-code omits but which
   is needed for spanning patterns whose one-sided generators sit on
   opposite sides (see DESIGN.md);
5. every candidate's support is verified against the level dataset
   (``CheckFrequency``), so the result never contains false positives.

The function returns every pattern whose support in the level dataset meets
the level threshold, with exact level TID lists.

Given a :class:`MergeDelta` the same procedure runs as ``IncMergeJoin``
(Fig 12), at a cost proportional to what an update batch changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .. import obs, perf
from ..graph.database import GraphDatabase
from ..mining.base import Pattern, PatternKey, PatternSet
from ..mining.edges import EdgeTriple
from ..perf.counters import COUNTERS
from .join import (
    SupportCounter,
    cached_deletion_cores,
    join_patterns,
    pattern_edge_triples,
)


@dataclass
class MergeJoinStats:
    """Work counters of one merge-join invocation.

    ``isomorphism_tests`` counts graphs submitted to an existence check
    (the historical metric); ``vf2_tests`` counts backtracking searches
    actually entered — they differ only under the reference matcher,
    whose quick-reject sits inside the check.  ``fingerprint_rejects``
    counts candidate graphs the kernel's admit prefilter dropped before
    submission, and the cache counters
    describe the shared support cache when one was passed in.
    """

    carried_patterns: int = 0
    carried_pruned: int = 0
    candidates_generated: int = 0
    candidates_frequent: int = 0
    isomorphism_tests: int = 0
    vf2_tests: int = 0
    fingerprint_rejects: int = 0
    support_cache_hits: int = 0
    support_cache_misses: int = 0
    rounds: int = 0
    known_reused: int = 0  # old patterns recounted over the touched graphs only
    recount_searches: int = 0  # searches those recounts entered
    candidates_counted: int = 0  # candidates that reached a full count
    join_levels_skipped: int = 0  # levels the cs/0112007 bound proved hopeless
    join_pairs_pruned: int = 0  # generator pairs skipped by the TID bound
    join_pairs_untouched: int = 0  # settled pairs the batch's graphs missed
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MergeDelta:
    """A node's state before an update batch, and what the batch changed.

    ``previous`` is the node's result then (exact TID lists), ``left`` /
    ``right`` the children's results it was merged from; ``touched`` maps
    each gid whose piece at the node changed to the label triples of the
    piece's new edges (added, re-labelled, or at a re-labelled vertex).
    Every other graph is the graph it was, so every verdict about it
    stands, and a pattern can have *gained* a touched graph only through
    one of those edges.
    """

    previous: PatternSet
    left: PatternSet
    right: PatternSet
    touched: Mapping[int, frozenset[EdgeTriple]]

    def facts(self, merged: PatternSet, stats: MergeJoinStats) -> dict:
        """What the re-merge that returned ``merged`` did, as trace
        attributes: old patterns recounted and the searches that took,
        patterns lost (``fi``), joined pairs the batch could not lift,
        candidates counted, and patterns gained (``if_``)."""
        return {
            "recounted": stats.known_reused,
            "recount_searches": stats.recount_searches,
            "fi": sum(1 for p in self.previous if p.key not in merged),
            "pairs_skipped_untouched": stats.join_pairs_untouched,
            "candidates_counted": stats.candidates_counted,
            "if_": sum(1 for p in merged if p.key not in self.previous),
        }


def merge_join(
    dataset: GraphDatabase,
    left: PatternSet,
    right: PatternSet,
    threshold: int,
    strict_paper_joins: bool = False,
    max_size: int | None = None,
    stats: MergeJoinStats | None = None,
    support_cache: object | None = None,
    delta: MergeDelta | None = None,
) -> PatternSet:
    """Combine the frequent patterns of two sibling partitions.

    Parameters
    ----------
    dataset:
        The level dataset ``S`` (the parent node's graphs).
    left, right:
        ``P(S0)`` and ``P(S1)`` — frequent patterns of the two children,
        with child-level TID lists.
    threshold:
        Absolute support threshold at this level.
    strict_paper_joins:
        Restrict candidate generation to exactly the paper's three join
        combinations (loses some spanning patterns; see DESIGN.md).
    max_size:
        Optional bound on pattern size.
    support_cache:
        Optional :class:`~repro.perf.SupportCache` of an owner that
        re-tests the same graph instances (repeated mines): per-graph
        containment verdicts are read and written under each pattern's
        canonical key.  Ignored over a store-backed dataset, whose
        decoded instances are transient.
    delta:
        The node's pre-update state (IncPartMiner).  A pattern of
        ``delta.previous`` keeps its TIDs outside ``delta.touched`` and
        is searched for inside it only, and a generator pair the node
        had already joined is skipped unless a touched graph could have
        lifted one of its candidates.  Everything new — patterns a
        child did not carry before, pairs with a new generator — is
        handled as in a fresh merge: the result is what a fresh merge
        of the same inputs returns, plus the still-frequent patterns of
        ``delta.previous`` a fresh merge no longer reaches.

    Returns
    -------
    PatternSet
        ``P(S)`` — patterns frequent in ``S`` at ``threshold`` with exact
        TID lists against ``S``.
    """
    stats = stats if stats is not None else MergeJoinStats()
    compiles = COUNTERS.flat_db_compiles
    with obs.span("merge.counter", graphs=len(dataset)) as counter_span:
        counter = SupportCounter(dataset, cache=support_cache)
        counter_span.set_attrs(compiled=COUNTERS.flat_db_compiles != compiles)
    result = PatternSet()

    # Line 1: frequent 1-edge patterns of S, read off the index the
    # counter's single pass over S just built.
    allowed_triples = set()
    for fedge in counter.frequent_edges(threshold):
        allowed_triples.add(fedge.triple)
        result.add(fedge.to_pattern())

    # Lines 2-3: Apriori pruning of carried patterns against P^1(S).
    carried: dict[PatternKey, Pattern] = {}
    sides: dict[PatternKey, set[int]] = {}
    for side_index, source in enumerate((left, right)):
        for pattern in source:
            if pattern.size < 2:
                continue  # 1-edge level handled by the direct scan
            stats.carried_patterns += 1
            if not pattern_edge_triples(pattern.graph) <= allowed_triples:
                stats.carried_pruned += 1
                continue
            existing = carried.get(pattern.key)
            if existing is None:
                carried[pattern.key] = pattern
            else:
                carried[pattern.key] = Pattern(
                    graph=existing.graph,
                    key=existing.key,
                    support=len(existing.tids | pattern.tids),
                    tids=existing.tids | pattern.tids,
                )
            sides.setdefault(pattern.key, set()).add(side_index)

    # The cs/0112007 candidate upper bound, transferred to TID space: a
    # join candidate's level support is contained in every generating
    # pair's TID intersection, so inputs below threshold, pairs whose
    # intersection is below threshold, and whole levels where no
    # core-compatible pair can reach it are all provably fruitless.
    # Every input carries level-exact TIDs — counted here, or recounted
    # over the touched graphs of an incremental merge — so the bound
    # holds on both; `--no-accel` restores the paper-pure path.
    use_bound = perf.enabled()
    # Under the same regime the batched scan kernel may stop a count
    # early once the pattern provably cannot reach the threshold: the
    # partial TID list that produces is only ever attached to patterns
    # the bound excludes from joins and from the result, and patterns
    # that DO reach the threshold always come back with exact TIDs.
    verify_minsup = threshold if use_bound else 0
    touched = delta.touched if delta is not None else None
    touched_gids = frozenset(touched or ())

    def verify(key: PatternKey, graph, tids: frozenset[int]) -> Pattern:
        """Level support of a pattern, seeded by TIDs known to hold it."""
        old = delta.previous.get(key) if delta is not None else None
        restrict = None
        if old is not None:
            # Delta recount: only a touched graph can have changed sides.
            stats.known_reused += 1
            tids, restrict = (old.tids - touched_gids) | tids, touched_gids
        searches = counter.vf2_tests
        support, tids = counter.count(
            graph, tids, restrict=restrict, key=key, minsup=verify_minsup
        )
        if old is not None:
            stats.recount_searches += counter.vf2_tests - searches
        return Pattern(graph=graph, key=key, support=support, tids=tids)

    # Exact level support for every carried pattern, seeded by child TIDs.
    evaluated: dict[PatternKey, Pattern] = {}
    # F holds the spanning patterns discovered at this level, by size.
    new_frequent: dict[int, list[Pattern]] = {}
    with obs.span("merge.verify_carried", carried=len(carried)):
        for key, pattern in carried.items():
            evaluated[key] = verify(key, pattern.graph, pattern.tids)
            if evaluated[key].support >= threshold:
                result.add(evaluated[key])
        if delta is not None:
            # What this node found by joining (or a child has since
            # lost) is not carried: recounted, it joins from F.
            for old in delta.previous:
                if old.size < 2 or old.key in evaluated:
                    continue
                if not pattern_edge_triples(old.graph) <= allowed_triples:
                    continue
                pattern = verify(old.key, old.graph, frozenset())
                evaluated[old.key] = pattern
                if pattern.support >= threshold:
                    result.add(pattern)
                    new_frequent.setdefault(old.size, []).append(pattern)

    # A pattern is *settled* when it was a join input of this node before
    # the batch in the role it has now: two settled inputs of one join
    # combination were joined then, every candidate of theirs decided.
    settled = set() if delta is None else {
        key
        for key in evaluated
        if key in delta.previous
        and (key in delta.left) == (0 in sides.get(key, ()))
        and (key in delta.right) == (1 in sides.get(key, ()))
    }

    def join_parts(a: list[Pattern], b: list[Pattern]) -> list[tuple]:
        """``(left, right, touched-or-None)`` calls covering ``a x b``."""
        if delta is None:
            return [(a, b, None)]
        a_old = [p for p in a if p.key in settled]
        a_new = [p for p in a if p.key not in settled]
        b_old = [p for p in b if p.key in settled]
        b_new = [p for p in b if p.key not in settled]
        return [(a_old, b_old, touched), (a_new, b, None), (a_old, b_new, None)]

    def side_patterns(side_index: int, size: int) -> list[Pattern]:
        return [
            evaluated[key]
            for key, pattern in carried.items()
            if pattern.size == size
            and side_index in sides[key]
            and not (use_bound and evaluated[key].support < threshold)
        ]

    def core_tid_maxima(patterns: list[Pattern]) -> dict:
        """Per deletion-core key, the largest TID-list size among owners."""
        maxima: dict = {}
        for pattern in patterns:
            count = len(pattern.tids)
            for core in cached_deletion_cores(pattern)[1]:
                if maxima.get(core.core_key, -1) < count:
                    maxima[core.core_key] = count
        return maxima

    def level_hopeless(join_inputs: list) -> bool:
        """True if no join combination can produce a frequent candidate.

        For every shared core key, ``min(max |tids| left, max |tids|
        right)`` bounds every core-compatible pair's TID intersection
        from above; if no shared core reaches the threshold in any
        combination, every candidate of the level is provably
        infrequent.
        """
        maxima_cache: dict[int, dict] = {}

        def maxima(patterns: list[Pattern]) -> dict:
            cached = maxima_cache.get(id(patterns))
            if cached is None:
                cached = maxima_cache[id(patterns)] = core_tid_maxima(
                    patterns
                )
            return cached

        for a, b in join_inputs:
            a_max, b_max = maxima(a), maxima(b)
            if len(b_max) < len(a_max):
                a_max, b_max = b_max, a_max
            for core_key, count_a in a_max.items():
                if count_a < threshold:
                    continue
                if b_max.get(core_key, -1) >= threshold:
                    return False
        return True

    # Level-wise join loop (Fig 11 lines 4-14).
    max_carried = max((p.size for p in carried.values()), default=1)
    size = 2
    while True:
        if max_size is not None and size + 1 > max_size:
            break
        if size > max_carried and size not in new_frequent:
            break
        with obs.span("merge.round", round=size - 1, size=size) as round_span:
            left_k = side_patterns(0, size)
            right_k = side_patterns(1, size)
            f_k = new_frequent.get(size, [])

            join_inputs = [(left_k, f_k), (right_k, f_k), (f_k, f_k)]
            if size == 2 or not strict_paper_joins:
                # C^3 = Join(P^2(S0), P^2(S1)) seeds the loop; the same
                # combination at higher sizes is the completeness fix.
                join_inputs.append((left_k, right_k))

            if use_bound and level_hopeless(join_inputs):
                stats.rounds += 1
                stats.join_levels_skipped += 1
                COUNTERS.inc("join_levels_skipped")
                # The soundness test replays skipped levels without the
                # bound and asserts they contain zero frequent patterns.
                stats.extras.setdefault("skipped_join_levels", []).append(
                    {
                        "size": size,
                        "threshold": threshold,
                        "inputs": [
                            (list(a), list(b)) for a, b in join_inputs
                        ],
                    }
                )
                round_span.set_attrs(
                    candidates=0, frequent=0, bound_skipped=True
                )
                size += 1
                continue

            seen = set(evaluated)
            candidates: dict[PatternKey, tuple] = {}
            min_bound = threshold if use_bound else 0
            pruned_before = COUNTERS.join_pairs_pruned
            untouched_before = COUNTERS.join_pairs_untouched
            for a, b in join_inputs:
                for a_part, b_part, within in join_parts(a, b):
                    joined = join_patterns(
                        a_part, b_part, seen,
                        min_bound=min_bound, touched=within,
                    )
                    for key, (graph, bound) in joined.items():
                        # First-found bound kept: every generating pair's
                        # TID intersection is a sound support bound on
                        # its own.
                        candidates.setdefault(key, (graph, bound))
            stats.join_pairs_pruned += (
                COUNTERS.join_pairs_pruned - pruned_before
            )
            stats.join_pairs_untouched += (
                COUNTERS.join_pairs_untouched - untouched_before
            )

            stats.rounds += 1
            stats.candidates_generated += len(candidates)
            frequent_before = stats.candidates_frequent
            for key, (graph, bound) in candidates.items():
                evaluated[key] = Pattern(graph, key, 0, frozenset())
                if len(bound) < threshold:
                    # The TID bound already caps the support below threshold.
                    continue
                if not pattern_edge_triples(graph) <= allowed_triples:
                    continue
                stats.candidates_counted += 1
                support, tids = counter.count(
                    graph, restrict=bound, key=key, minsup=verify_minsup
                )
                pattern = Pattern(
                    graph=graph, key=key, support=support, tids=tids
                )
                evaluated[key] = pattern
                if support >= threshold:
                    stats.candidates_frequent += 1
                    new_frequent.setdefault(size + 1, []).append(pattern)
                    result.add(pattern)
            round_span.set_attrs(
                candidates=len(candidates),
                frequent=stats.candidates_frequent - frequent_before,
            )
        size += 1

    stats.isomorphism_tests += counter.isomorphism_tests
    stats.vf2_tests += counter.vf2_tests
    stats.fingerprint_rejects += counter.fingerprint_rejects
    stats.support_cache_hits += counter.cache_hits
    stats.support_cache_misses += counter.cache_misses
    return result
