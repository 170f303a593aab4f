"""Subgraph isomorphism and graph isomorphism for labeled graphs.

Implements a VF2-style backtracking matcher with label and degree pruning.
It is the oracle behind support counting (``CheckFrequency`` in the
paper's Fig 11/12), the engine of ``--no-accel``, and the occurrence
enumerator of relocation and the MNI reference fold.

The matcher finds *subgraph isomorphisms* in the paper's sense (Section 3):
an injective mapping ``f`` from pattern vertices to target vertices that
preserves vertex labels and maps every pattern edge onto a target edge with
the same label.  The target may have extra edges between mapped vertices
(non-induced / monomorphism semantics, which is what frequent subgraph mining
uses).

This module holds the **reference matcher** — :func:`find_embeddings` and
:func:`subgraph_exists_reference`, dict-based backtracking, the oracle of
the differential tests.  Existence checks (:func:`subgraph_exists`) and
support counts (:func:`count_support`) are answered by the production
kernel in :mod:`repro.perf.batchscan` instead — pattern compiled to a flat
plan, graphs to CSR arrays, one iterative descent per candidate list —
unless the layer is switched off (:func:`repro.perf.enabled`), in which
case they run the reference matcher.  Verdicts are identical either way.
"""

from __future__ import annotations

from typing import Iterator

from .. import perf
from ..perf.counters import COUNTERS
from .canonical import canonical_code
from .database import GraphDatabase
from .labeled_graph import LabeledGraph


def _match_order(
    pattern: LabeledGraph, start: int | None = None
) -> list[int]:
    """Order pattern vertices so each (after the first) touches a prior one.

    Starts from the highest-degree vertex (or ``start``, for an
    enumeration rooted at a chosen vertex) and grows a connected
    frontier, preferring vertices with many already-ordered neighbors
    (most constrained first).  Isolated vertices, if any, come last.
    The flat plans of :mod:`repro.perf.fastmatch` use the same order.
    """
    n = pattern.num_vertices
    if n == 0:
        return []
    placed: list[int] = []
    in_order = [False] * n
    if start is None:
        start = max(range(n), key=pattern.degree)
    placed.append(start)
    in_order[start] = True
    while len(placed) < n:
        best = None
        best_key = None
        for v in range(n):
            if in_order[v]:
                continue
            backlinks = sum(1 for w in pattern.neighbor_ids(v) if in_order[w])
            key = (backlinks, pattern.degree(v))
            if best is None or key > best_key:
                best, best_key = v, key
        assert best is not None
        placed.append(best)
        in_order[best] = True
    return placed


def _quick_reject(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """True if the target trivially cannot contain the pattern."""
    if (
        pattern.num_vertices > target.num_vertices
        or pattern.num_edges > target.num_edges
    ):
        return True
    pv, pe = pattern.label_histogram()
    tv, te = target.label_histogram()
    for label, count in pv.items():
        if tv.get(label, 0) < count:
            return True
    for label, count in pe.items():
        if te.get(label, 0) < count:
            return True
    return False


def find_embeddings(
    pattern: LabeledGraph,
    target: LabeledGraph,
    limit: int | None = None,
    induced: bool = False,
) -> Iterator[dict[int, int]]:
    """Yield subgraph-isomorphism mappings pattern-vertex -> target-vertex.

    At most ``limit`` mappings are produced when given.  An empty pattern
    yields one empty mapping.

    With ``induced=True`` the mapping must also preserve *non*-edges: two
    unconnected pattern vertices may not map onto adjacent target vertices
    (the AGM family's induced-subgraph semantics).
    """
    if _quick_reject(pattern, target):
        return
    order = _match_order(pattern)
    n = len(order)
    if n == 0:
        yield {}
        return

    # Per depth: the vertex placed there, its pattern neighbors already
    # mapped by then, and (induced matching) the already-mapped
    # non-neighbors whose images must stay non-adjacent.
    position = {v: i for i, v in enumerate(order)}
    steps: list[tuple[int, list[tuple[int, object]], list[int]]] = []
    for v in order:
        prior = [
            (w, label)
            for w, label in pattern.neighbors(v)
            if position[w] < position[v]
        ]
        prior_non = [
            w for w in order[: position[v]] if not pattern.has_edge(v, w)
        ] if induced else []
        steps.append((v, prior, prior_non))

    # Backtracking over an explicit stack of candidate iterators, one per
    # placed depth (a recursive closure would be a reference cycle per
    # call).  ``stack[d]`` resumes only after depths > d are undone.
    mapping: dict[int, int] = {}
    used: set[int] = set()
    produced = 0
    stack = [_candidates(pattern, target, *steps[0], mapping, used)]
    while stack:
        depth = len(stack) - 1
        cand = next(stack[-1], None)
        if cand is not None:
            mapping[order[depth]] = cand
            used.add(cand)
            if depth + 1 < n:
                stack.append(
                    _candidates(
                        pattern, target, *steps[depth + 1], mapping, used
                    )
                )
                continue
            produced += 1
            yield dict(mapping)
        else:
            stack.pop()
            depth -= 1  # the vertex above has exhausted its subtree
            if depth < 0:
                return
        used.discard(mapping.pop(order[depth]))
        if limit is not None and produced >= limit:
            return


def _candidates(
    pattern: LabeledGraph,
    target: LabeledGraph,
    v: int,
    prior: list[tuple[int, object]],
    prior_non: list[int],
    mapping: dict[int, int],
    used: set[int],
) -> Iterator[int]:
    """Unused target vertices that can take pattern vertex ``v``: same
    label, enough degree, and every edge to the mapped vertices kept
    (every non-edge too, for induced matching)."""
    v_label = pattern.vertex_label(v)
    pool = (
        target.neighbor_ids(mapping[prior[0][0]])  # next to a mapped vertex
        if prior
        else range(target.num_vertices)
    )
    for cand in pool:
        if cand in used or target.vertex_label(cand) != v_label:
            continue
        if target.degree(cand) < pattern.degree(v):
            continue
        row = target.adjacency(cand)
        if all(
            mapping[w] in row and row[mapping[w]] == label
            for w, label in prior
        ) and not any(mapping[w] in row for w in prior_non):
            yield cand


def subgraph_exists(
    pattern: LabeledGraph, target: LabeledGraph, induced: bool = False
) -> bool:
    """True if ``pattern`` is subgraph-isomorphic to ``target``.

    ``induced=True`` switches to induced-subgraph semantics.

    Runs the production kernel (:func:`repro.perf.flat_contains`) on the
    pattern's cached flat plan and the target's cached flat form unless
    the layer is globally disabled; both paths return identical verdicts.
    """
    if perf.enabled():
        # Target first: compiling it interns its labels, and a plan
        # compiled before that could be marked unmatchable.
        flat_target = perf.get_flat_graph(target)
        return perf.flat_contains(
            perf.get_flat_plan(pattern), flat_target, induced=induced
        )
    return subgraph_exists_reference(pattern, target, induced=induced)


def subgraph_exists_reference(
    pattern: LabeledGraph, target: LabeledGraph, induced: bool = False
) -> bool:
    """The unaccelerated existence check (differential baseline).

    Identical semantics to :func:`subgraph_exists`; always runs the
    recursive reference matcher with only the histogram quick-reject in
    front, and maintains the same global work counters so benchmarks can
    compare searches entered with the layer off and on.
    """
    if _quick_reject(pattern, target):
        COUNTERS.inc("quick_rejects")
        return False
    if pattern.num_vertices > 0:
        COUNTERS.inc("vf2_calls")
    for _ in find_embeddings(pattern, target, limit=1, induced=induced):
        return True
    return False


def are_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """True if the two graphs are isomorphic (same labels, same structure)."""
    if g1.num_vertices != g2.num_vertices or g1.num_edges != g2.num_edges:
        return False
    # Same vertex/edge counts: any subgraph isomorphism is a bijection, and
    # edge counts matching forces edge sets to coincide under it.
    return subgraph_exists(g1, g2)


def count_support(
    pattern: LabeledGraph,
    database: GraphDatabase,
    candidate_gids: set[int] | None = None,
    induced: bool = False,
    cache: "perf.SupportCache | None" = None,
    key: tuple | None = None,
    minsup: int = 0,
    need_tids: bool = True,
    flat: "perf.FlatDB | None" = None,
    arena: "perf.ScanArena | None" = None,
) -> tuple[int, set[int]]:
    """Count the database graphs containing ``pattern``.

    ``candidate_gids`` restricts the scan to those gids (the rest count as
    non-supporting) via direct lookup — the cost scales with the candidate
    set, not the database; candidates are scanned in ascending gid order
    (deterministic replay); pass ``None`` to
    scan the whole database; ``induced`` switches to induced-subgraph
    semantics.  Returns ``(support, supporting_gids)``.

    ``cache`` memoizes per-graph containment verdicts across calls
    (:class:`repro.perf.SupportCache`); ``key`` is the pattern's canonical
    key if already known — when omitted it is derived (and memoized on the
    pattern) the first time the cache is consulted.

    ``minsup`` opts into support-threshold early termination: the scan
    aborts once the remaining candidates cannot reach ``minsup``, and —
    with ``need_tids=False`` — once ``minsup`` supporting graphs are in
    hand.  After an abort the returned pair is a partial lower bound whose
    frequency verdict (``support >= minsup``) is nevertheless exact;
    callers that consume TID lists of frequent patterns keep the default
    ``need_tids=True``, under which frequent results are always complete.

    ``flat`` is a pre-validated flat compilation of ``database``
    (:func:`repro.perf.get_flat_db`): callers issuing many counts against
    one stable database — a recount pass, a counter's lifetime — fetch it
    once and pass it down, skipping the per-call freshness revalidation
    (the caller then owns the database-unchanged contract, exactly as
    :class:`~repro.core.join.SupportCounter` does).  ``arena`` is a
    :class:`repro.perf.ScanArena` to reuse across scans.

    With the acceleration layer off the reference matcher visits every
    candidate; ``cache``, ``minsup``, ``flat`` and ``arena`` are ignored.
    """
    if not perf.enabled():
        flat = None
    elif flat is None:
        flat = perf.get_flat_db(database)
    gids = (
        None
        if candidate_gids is None
        else sorted(gid for gid in candidate_gids if gid in database)
    )
    supporting: set[int] = set()
    scan_support(
        pattern, database, gids, flat, supporting,
        induced=induced, cache=cache, key=key, minsup=minsup,
        need_tids=need_tids, arena=arena,
    )
    return len(supporting), supporting


def scan_support(
    pattern: LabeledGraph,
    database: GraphDatabase,
    gids: list[int] | None,
    flat: "perf.FlatDB | None",
    supporting: set[int],
    induced: bool = False,
    cache: "perf.SupportCache | None" = None,
    key: tuple | None = None,
    minsup: int = 0,
    need_tids: bool = True,
    arena: "perf.ScanArena | None" = None,
) -> tuple["perf.BatchScan | None", int]:
    """Probe the cache, scan the misses, store the verdicts: the one
    counting routine behind :func:`count_support` and
    :class:`repro.core.join.SupportCounter`.

    Adds to ``supporting`` (gids already known to contain the pattern;
    they count towards ``minsup``) every gid of ``gids`` — sorted, all in
    ``database``; ``None`` is the whole database, which the kernel scans
    through its memoized admit list — whose graph contains ``pattern``,
    and returns ``(scan, cache_hits)``.

    ``flat`` selects the matcher.  A :class:`~repro.perf.FlatDB` of
    ``database`` runs the kernel: one ``cache`` probe resolves what it
    can, one :func:`~repro.perf.flat_count_batch` call decides the rest
    (its :class:`~repro.perf.BatchScan` is returned for the tallies), one
    store keeps every decided miss — after an early exit the undecided
    gids are not.  ``None`` runs the reference matcher over every gid,
    exactly and cache-less; ``scan`` is then ``None``.
    """
    if flat is None:
        items = (
            iter(database)
            if gids is None
            else ((gid, database[gid]) for gid in gids)
        )
        supporting.update(
            gid
            for gid, graph in items
            if subgraph_exists_reference(pattern, graph, induced=induced)
        )
        return None, 0
    if cache is not None and key is None:
        try:
            key = canonical_code(pattern)
        except ValueError:  # empty or disconnected pattern: no canonical key
            cache = None
    cache_hits = 0
    if cache is not None:
        probe = sorted(database.gids()) if gids is None else gids
        graphs = [database[gid] for gid in probe]
        gids, missed = [], []
        known = cache.probe([key], graphs, induced=induced)
        for gid, graph, verdict in zip(probe, graphs, known):
            if verdict is None:
                gids.append(gid)
                missed.append(graph)
            elif verdict:
                supporting.add(gid)
        cache_hits = len(probe) - len(gids)
    scan = perf.flat_count_batch(
        perf.get_flat_plan(pattern),
        flat,
        gids,
        induced=induced,
        minsup=max(0, minsup - len(supporting)),
        need_tids=need_tids,
        arena=arena,
    )
    supporting.update(scan.hits)
    if cache is not None:
        hits, undecided = set(scan.hits), set(scan.undecided)
        decided = [i for i, gid in enumerate(gids) if gid not in undecided]
        cache.store(
            [key], [missed[i] for i in decided],
            [gids[i] in hits for i in decided], induced=induced,
        )
    return scan, cache_hits
