"""Flat pattern plans and the integer-space admit prefilter.

A :class:`FlatPlan` is one pattern compiled for the kernels in
:mod:`repro.perf.batchscan`: the match order (shared with the reference
matcher, :func:`repro.graph.isomorphism._match_order`), and per match
position the required vertex-label id, the minimum degree, the
already-placed pattern neighbours with their edge-label ids (*anchors*)
and — for induced matching — the already-placed non-neighbours, all as
flat ``int`` lists.  The reference matcher recomputes this for every
``(pattern, target)`` pair; support counting matches one pattern against
tens to thousands of targets, so it is compiled once per pattern
version and cached on the pattern instance.

Label objects are replaced by interned ids from the process-global
:class:`~repro.perf.flatgraph.LabelInterner`.  A pattern label the
interner has never seen cannot occur in any flat graph compiled so far,
so the plan is marked *unmatchable* — but the mark records the interner
length and is revalidated when the table grows (a later database may
intern that label, at which point the plan silently recompiles).

:func:`flat_admits` compares a plan's invariants (counts, edge-label
histogram, per-label degree sequences) with a flat graph's; every one is
monotone under subgraph containment, so a rejection needs no search.
"""

from __future__ import annotations

import weakref

from ..graph.labeled_graph import LabeledGraph
from .counters import COUNTERS
from .flatgraph import INTERNER, FlatGraph, LabelInterner


class FlatPlan:
    """Integer-only matching state of one pattern.

    Positions ``0 .. n-1`` are the match order; everything is indexed by
    position, not by pattern vertex id.  Anchors and non-adjacency
    constraints are flattened into CSR-style ``(ptr, data)`` pairs, so
    the matcher never iterates tuples of tuples.
    """

    __slots__ = (
        "__weakref__",  # FlatDB admit/scan memos key on plans weakly
        "version",
        "n",
        "num_vertices",
        "num_edges",
        "vlabs",  # position -> required vertex-label id (-1: not interned)
        "mindeg",  # position -> required minimum degree
        "aptr",  # anchor CSR pointers (len n+1)
        "apos",  # anchor prior positions, flattened
        "aelab",  # anchor edge-label ids, parallel to apos
        "nptr",  # non-adjacent CSR pointers (len n+1)
        "npos",  # non-adjacent prior positions, flattened
        "unmatchable",  # a pattern label had no interned id at compile
        "interner_len",  # interner size at compile (revalidation stamp)
        "ehist",  # (edge-label id, required directed count) pairs
        "degs_by_label",  # (vertex-label id, descending degrees) pairs
        "meta",  # per-depth constants packed for one-unpack node entry
        "order",  # position -> pattern vertex id
    )

    def __init__(
        self,
        pattern: LabeledGraph,
        interner: LabelInterner = INTERNER,
        start: int | None = None,
    ) -> None:
        # ``start`` pins the depth-0 pattern vertex (rooted enumeration);
        # such plans are one-off and bypass the per-pattern plan cache.
        from ..graph.isomorphism import _match_order  # import cycle

        order = _match_order(pattern, start)
        position = {v: p for p, v in enumerate(order)}
        self.version = pattern.version
        self.n = len(order)
        self.order = tuple(order)
        self.num_vertices = pattern.num_vertices
        self.num_edges = pattern.num_edges
        self.interner_len = len(interner)
        unmatchable = False
        lookup = interner.lookup

        vlabs = []
        aptr, apos, aelab = [0], [], []
        nptr, npos = [0], []
        for p, v in enumerate(order):
            lid = lookup(pattern.vertex_label(v))
            if lid is None:
                unmatchable = True
                lid = -1
            vlabs.append(lid)
            # Anchors: pattern neighbours placed before ``v`` (the first
            # one generates the candidates, the rest are edge checks).
            for w, elabel in pattern.neighbors(v):
                if position[w] < p:
                    lid = lookup(elabel)
                    if lid is None:
                        unmatchable = True
                        lid = -1
                    apos.append(position[w])
                    aelab.append(lid)
            aptr.append(len(apos))
            neighbor_ids = set(pattern.neighbor_ids(v))
            npos.extend(q for q in range(p) if order[q] not in neighbor_ids)
            nptr.append(len(npos))
        self.vlabs = vlabs
        self.mindeg = [pattern.degree(v) for v in order]
        self.aptr, self.apos, self.aelab = aptr, apos, aelab
        self.nptr, self.npos = nptr, npos
        self.unmatchable = unmatchable

        # Integer-space invariants for :func:`flat_admits`.  Edge counts
        # are doubled to compare against FlatGraph.ehist, which counts
        # both directions of every edge.  There is no vertex histogram:
        # ``degs_by_label`` carries the per-label vertex counts as its
        # sequence lengths, so a separate count check would be redundant.
        eh: dict[int, int] = {}
        for lid in aelab:
            eh[lid] = eh.get(lid, 0) + 2
        self.ehist = sorted(eh.items())
        db: dict[int, list[int]] = {}
        for lid, deg in zip(vlabs, self.mindeg):
            db.setdefault(lid, []).append(deg)
        self.degs_by_label = [
            (lid, tuple(sorted(degs, reverse=True)))
            for lid, degs in sorted(db.items())
        ]

        # Per-depth constants, packed so the batched kernel's node entry
        # is one list index + tuple unpack instead of six list reads:
        # (a0, a1, n0, n1, vlabel, mindeg, first-anchor pos, first-anchor
        # edge-label id, more-than-one-anchor flag) — the anchor pair is
        # (-1, -1) for unanchored depths.
        self.meta = tuple(
            (
                aptr[d],
                aptr[d + 1],
                nptr[d],
                nptr[d + 1],
                vlabs[d],
                self.mindeg[d],
                apos[aptr[d]] if aptr[d + 1] > aptr[d] else -1,
                aelab[aptr[d]] if aptr[d + 1] > aptr[d] else -1,
                aptr[d + 1] > aptr[d] + 1,
            )
            for d in range(self.n)
        )


# One flat plan per live pattern instance, version-validated; plans are
# interner-global, so they transfer across databases and merge levels.
_FLAT_PLANS: "weakref.WeakKeyDictionary[LabeledGraph, FlatPlan]"
_FLAT_PLANS = weakref.WeakKeyDictionary()


def get_flat_plan(pattern: LabeledGraph) -> FlatPlan:
    """The (cached) flat plan of ``pattern`` at its current version.

    An *unmatchable* plan is recompiled whenever the global interner has
    grown since — the missing label may have been interned by a newer
    database, which would make the stale mark unsound.
    """
    plan = _FLAT_PLANS.get(pattern)
    if (
        plan is not None
        and plan.version == pattern.version
        and not (plan.unmatchable and len(INTERNER) > plan.interner_len)
    ):
        return plan
    plan = FlatPlan(pattern)
    _FLAT_PLANS[pattern] = plan
    COUNTERS.inc("flat_plan_compiles")
    return plan


ADMIT = 0  # no invariant rules the pattern out
REJECT_QUICK = 1  # vertex/edge counts or label histograms
REJECT_DEGREE = 2  # per-label degree sequences


def flat_admits(plan: FlatPlan, fg: FlatGraph) -> int:
    """Integer-space admit prefilter: can ``plan`` possibly embed in ``fg``?

    Vertex/edge counts, label histograms and per-label degree
    sequences (the target's sorted-descending degrees of a label must
    pointwise dominate the pattern's), compared over the precompiled int
    invariants — no label objects, no per-call dict builds.  All are
    sound for monomorphism and induced semantics alike.  Returns
    :data:`ADMIT`, :data:`REJECT_QUICK` (counts / histogram: what the
    reference matcher's quick-reject would catch, counted as
    ``quick_rejects``) or :data:`REJECT_DEGREE` (counted as
    ``fingerprint_rejects``).
    """
    if (
        plan.unmatchable
        or plan.num_vertices > fg.n
        or plan.num_edges > fg.m
    ):
        return REJECT_QUICK
    ehist = fg.ehist
    for lid, need in plan.ehist:
        if ehist.get(lid, 0) < need:
            return REJECT_QUICK
    deg_by_label = fg.deg_by_label
    for lid, wanted in plan.degs_by_label:
        have = deg_by_label.get(lid, ())
        if len(have) < len(wanted):
            # Fewer target vertices of this label than the pattern needs
            # — the classic histogram reject, read off sequence lengths.
            return REJECT_QUICK
        for need, got in zip(wanted, have):
            if got < need:
                return REJECT_DEGREE
    return ADMIT
