"""Iterative existence matching over flat-array graphs.

:func:`flat_exists` answers "does this pattern embed in this flat
graph?" with the same semantics (and the same match order) as
:func:`repro.perf.matchplan.plan_exists`, but its inner loop touches
only flat integer arrays:

* candidate generation for an anchored position is a pair of bisects
  locating the anchor row's sub-run of the required edge-label id
  (rows are sorted by ``(edge-label id, neighbor id)``);
* the remaining anchor constraints are answered by bisecting the
  candidate's own row — label sub-run first, neighbor id within it;
* induced non-adjacency is a linear scan of the candidate's row (rows
  are short; patterns needing this are the AGM family only).

No dicts are read and no tuples are allocated inside the search — the
per-depth state is four preallocated ``int`` lists.

A :class:`FlatPlan` is the flat compilation of a pattern's
:class:`~repro.perf.matchplan.MatchPlan`: label objects are replaced by
interned ids from the process-global
:class:`~repro.perf.flatgraph.LabelInterner`.  A pattern label the
interner has never seen cannot occur in any flat graph compiled so far,
so the plan is marked *unmatchable* — but the mark records the interner
length and is revalidated when the table grows (a later database may
intern that label, at which point the plan silently recompiles).

``vf2_calls`` is incremented per search entered, exactly like both other
matchers, so VF2-reduction accounting stays comparable across the
acceleration modes; ``flat_searches`` counts this matcher specifically.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right

from ..graph.labeled_graph import LabeledGraph
from .counters import COUNTERS
from .flatgraph import INTERNER, FlatGraph, LabelInterner
from .matchplan import MatchPlan, get_match_plan


class FlatPlan:
    """Integer-only compilation of one pattern's match plan.

    Anchors and non-adjacency constraints are flattened into CSR-style
    ``(ptr, data)`` pairs indexed by match position, so the matcher
    never iterates tuples of tuples.
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
        if start is None:
            plan = get_match_plan(pattern)
        else:
            plan = MatchPlan(pattern, start)
        self.version = pattern.version
        self.n = plan.n
        self.order = plan.order
        self.num_vertices = plan.num_vertices
        self.num_edges = plan.num_edges
        self.interner_len = len(interner)
        unmatchable = False
        lookup = interner.lookup

        vlabs = []
        for label in plan.vlabels:
            lid = lookup(label)
            if lid is None:
                unmatchable = True
                lid = -1
            vlabs.append(lid)
        self.vlabs = vlabs
        self.mindeg = list(plan.degrees)

        aptr, apos, aelab = [0], [], []
        for prior in plan.anchors:
            for position, elabel in prior:
                lid = lookup(elabel)
                if lid is None:
                    unmatchable = True
                    lid = -1
                apos.append(position)
                aelab.append(lid)
            aptr.append(len(apos))
        self.aptr, self.apos, self.aelab = aptr, apos, aelab

        nptr, npos = [0], []
        for prior in plan.nonadjacent:
            npos.extend(prior)
            nptr.append(len(npos))
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

    A flat re-statement of the first three layers of
    :meth:`repro.perf.fingerprint.GraphFingerprint.reject_reason`
    (counts, label histograms, per-label degree sequences) over the
    precompiled int invariants — no label objects, no per-call dict
    builds.  Returns :data:`ADMIT`, :data:`REJECT_QUICK` (counts /
    histogram: what the classic quick-reject would catch) or
    :data:`REJECT_DEGREE` (the fingerprint layer's extra power).  The
    fourth fingerprint layer (1-round neighborhood domination) is not
    replicated: the searches it would save are cheap on flat arrays.
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


def flat_exists(
    plan: FlatPlan, fg: FlatGraph, induced: bool = False, count: bool = True
) -> bool:
    """True if the planned pattern embeds in the flat graph ``fg``.

    Semantics are identical to
    :func:`repro.perf.matchplan.plan_exists` (monomorphism by default,
    induced with ``induced=True``); the differential suite pins the two
    against each other and against the recursive reference matcher.

    ``count=False`` skips the per-search counter increments — bulk
    counting loops (:func:`repro.graph.isomorphism.count_support`) tally
    locally and flush once, keeping the lock out of the hot loop; they
    must add every search they ran to ``vf2_calls`` *and*
    ``flat_searches`` afterwards.
    """
    n = plan.n
    if n == 0:
        return True
    if plan.unmatchable or plan.num_vertices > fg.n or plan.num_edges > fg.m:
        return False
    if count:
        COUNTERS.inc("vf2_calls")
        COUNTERS.inc("flat_searches")

    vlabs = plan.vlabs
    if n == 1:
        # Single-vertex pattern: any vertex of the right label matches
        # (degree requirement is 0, no anchors, no non-adjacency).
        return bool(fg.by_label.get(vlabs[0]))
    mindeg = plan.mindeg
    aptr, apos, aelab = plan.aptr, plan.apos, plan.aelab
    nptr, npos = plan.nptr, plan.npos
    vlab, indptr, nbr, elab = fg.vlab, fg.indptr, fg.nbr, fg.elab
    by_label = fg.by_label
    empty = ()

    assigned = [-1] * n  # position -> target vertex
    used = bytearray(fg.n)
    cursor = [0] * n  # per-depth scan position
    limit = [0] * n  # per-depth scan end
    roots = [None] * n  # per-depth unanchored candidate list (or None)

    # One flat loop: "enter" computes the candidate scan bounds of the
    # current depth, "advance" walks them to the next feasible candidate.
    # Both are inlined (no per-node function calls) — scan state is
    # spilled to cursor/limit/roots only when a depth suspends on a
    # successful match, and restored only on backtrack.
    depth = 0
    entering = True
    while True:
        if entering:
            a0 = aptr[depth]
            if aptr[depth + 1] > a0:
                # Anchored: scan the anchor image's sub-run of the
                # required edge-label id.
                anchor = assigned[apos[a0]]
                want = aelab[a0]
                lo = bisect_left(
                    elab, want, indptr[anchor], indptr[anchor + 1]
                )
                root = None
                i = lo
                end = bisect_right(elab, want, lo, indptr[anchor + 1])
            else:
                root = by_label.get(vlabs[depth], empty)
                i = 0
                end = len(root)
        else:
            root = roots[depth]
            i = cursor[depth]
            end = limit[depth]
            a0 = aptr[depth]
        anchored = root is None
        want_label = vlabs[depth]
        need_deg = mindeg[depth]
        a1 = aptr[depth + 1]
        n0 = nptr[depth]
        n1 = nptr[depth + 1]
        cand = -1
        while i < end:
            c = nbr[i] if anchored else root[i]
            i += 1
            if used[c]:
                continue
            if anchored and vlab[c] != want_label:
                continue
            row_lo = indptr[c]
            row_hi = indptr[c + 1]
            if row_hi - row_lo < need_deg:
                continue
            ok = True
            for j in range(a0 + 1, a1):
                # Is (c, image of apos[j]) an edge labeled aelab[j]?
                target = assigned[apos[j]]
                want = aelab[j]
                lo = bisect_left(elab, want, row_lo, row_hi)
                hi = bisect_right(elab, want, lo, row_hi)
                k = bisect_left(nbr, target, lo, hi)
                if k >= hi or nbr[k] != target:
                    ok = False
                    break
            if ok and induced and n1 > n0:
                for j in range(n0, n1):
                    target = assigned[npos[j]]
                    for k in range(row_lo, row_hi):
                        if nbr[k] == target:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                cand = c
                break
        if cand >= 0:
            roots[depth] = root
            cursor[depth] = i
            limit[depth] = end
            assigned[depth] = cand
            used[cand] = 1
            depth += 1
            if depth == n:
                return True
            entering = True
        else:
            depth -= 1
            if depth < 0:
                return False
            used[assigned[depth]] = 0
            assigned[depth] = -1
            entering = False
