"""Compiled match plans: per-pattern matching state, built once.

``find_embeddings`` (the reference matcher) recomputes the match order,
the prior-neighbor lists and the per-vertex requirements for every
``(pattern, target)`` pair.  In support counting the same pattern is
matched against tens-to-thousands of targets, so that work is pure
overhead.  A :class:`MatchPlan` hoists all of it into a per-pattern
compile step and caches the result on the pattern instance (weakly keyed,
validated against the pattern's ``version`` counter — the practical
equivalent of keying by ``(id(graph), graph.version)`` without the id
reuse hazard).

:func:`plan_exists` is the execution engine: an iterative,
allocation-light backtracking search specialized for the existence
question.  Unlike the reference generator it keeps a flat assignment
array and a ``bytearray`` used-set, never copies a mapping per embedding,
and returns at the first complete assignment.
"""

from __future__ import annotations

import weakref

from ..graph.labeled_graph import Label, LabeledGraph
from .counters import COUNTERS
from .fingerprint import GraphFingerprint, PatternProfile, get_fingerprint

#: Sentinel distinct from every edge label (labels may be ``None``).
_MISSING = object()


class MatchPlan:
    """Precompiled matching state of one pattern graph.

    Positions ``0 .. n-1`` are the match order; arrays are indexed by
    position, not by pattern vertex id.
    """

    __slots__ = (
        "version",
        "n",
        "num_vertices",
        "num_edges",
        "vlabels",  # position -> required vertex label
        "degrees",  # position -> required minimum degree
        "anchors",  # position -> ((prior position, edge label), ...)
        "nonadjacent",  # position -> (prior position, ...) non-neighbors
        "profile",  # PatternProfile for fingerprint checks
        "order",  # position -> pattern vertex id
    )

    def __init__(
        self, pattern: LabeledGraph, start: int | None = None
    ) -> None:
        self.version = pattern.version
        self.num_vertices = pattern.num_vertices
        self.num_edges = pattern.num_edges
        order = _match_order(pattern, start)
        n = len(order)
        self.n = n
        self.order = tuple(order)
        position = {v: i for i, v in enumerate(order)}
        self.vlabels = tuple(pattern.vertex_label(v) for v in order)
        self.degrees = tuple(pattern.degree(v) for v in order)
        anchors = []
        nonadjacent = []
        for p, v in enumerate(order):
            prior = tuple(
                (position[w], label)
                for w, label in pattern.neighbors(v)
                if position[w] < p
            )
            anchors.append(prior)
            neighbor_ids = set(pattern.neighbor_ids(v))
            nonadjacent.append(
                tuple(
                    q for q in range(p) if order[q] not in neighbor_ids
                )
            )
        self.anchors = tuple(anchors)
        self.nonadjacent = tuple(nonadjacent)
        self.profile = PatternProfile(pattern)


def _match_order(
    pattern: LabeledGraph, start: int | None = None
) -> list[int]:
    """Connected, most-constrained-first vertex order (as the reference).

    ``start`` pins position 0 (enumeration rooted at a chosen vertex);
    the default is the highest-degree vertex.
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


# One plan per live pattern instance, weakly keyed, version-validated.
_PLANS: "weakref.WeakKeyDictionary[LabeledGraph, MatchPlan]"
_PLANS = weakref.WeakKeyDictionary()


def get_match_plan(pattern: LabeledGraph) -> MatchPlan:
    """The (cached) compiled plan of ``pattern`` at its current version."""
    plan = _PLANS.get(pattern)
    if plan is not None and plan.version == pattern.version:
        COUNTERS.inc("plan_hits")
        return plan
    plan = MatchPlan(pattern)
    _PLANS[pattern] = plan
    COUNTERS.inc("plan_compiles")
    return plan


def plan_exists(
    plan: MatchPlan,
    target: LabeledGraph,
    fingerprint: GraphFingerprint,
    induced: bool = False,
) -> bool:
    """True if the planned pattern embeds in ``target``.

    The caller is expected to have passed ``fingerprint.admits`` already;
    this function runs the backtracking search only.
    """
    n = plan.n
    if n == 0:
        return True
    COUNTERS.inc("vf2_calls")

    vlabels = plan.vlabels
    degrees = plan.degrees
    anchors = plan.anchors
    nonadjacent = plan.nonadjacent
    vertex_label = target.vertex_label
    adjacency = target.adjacency
    by_label = fingerprint.vertices_by_label

    assigned = [-1] * n  # position -> target vertex
    rows = [None] * n  # position -> adjacency row of the assigned vertex
    used = bytearray(target.num_vertices)

    def candidates(p: int):
        label = vlabels[p]
        min_degree = degrees[p]
        prior = anchors[p]
        if prior:
            # Grow from the first already-assigned pattern neighbor.
            anchor_pos, anchor_elabel = prior[0]
            for cand, elabel in rows[anchor_pos].items():
                if (
                    elabel == anchor_elabel
                    and not used[cand]
                    and vertex_label(cand) == label
                    and len(adjacency(cand)) >= min_degree
                ):
                    yield cand
        else:
            for cand in by_label.get(label, ()):
                if not used[cand] and len(adjacency(cand)) >= min_degree:
                    yield cand

    iterators = [candidates(0)]
    depth = 0
    while True:
        extended = False
        for cand in iterators[depth]:
            row = adjacency(cand)
            prior = anchors[depth]
            feasible = True
            for i in range(1, len(prior)):
                q, elabel = prior[i]
                if row.get(assigned[q], _MISSING) != elabel:
                    feasible = False
                    break
            if feasible and induced:
                for q in nonadjacent[depth]:
                    if assigned[q] in row:
                        feasible = False
                        break
            if not feasible:
                continue
            assigned[depth] = cand
            rows[depth] = row
            used[cand] = 1
            depth += 1
            if depth == n:
                return True
            iterators.append(candidates(depth))
            extended = True
            break
        if not extended:
            iterators.pop()
            depth -= 1
            if depth < 0:
                return False
            used[assigned[depth]] = 0
            assigned[depth] = -1


def accel_subgraph_exists(
    pattern: LabeledGraph, target: LabeledGraph, induced: bool = False
) -> bool:
    """Fingerprint-prefiltered, plan-compiled existence check."""
    plan = get_match_plan(pattern)
    fingerprint = get_fingerprint(target)
    if not fingerprint.admits(plan.profile):
        return False
    return plan_exists(plan, target, fingerprint, induced=induced)
