"""The production matching kernels: one Python frame per whole scan.

Two iterative backtracking descents over flat graphs
(:mod:`repro.perf.flatgraph`) and flat plans
(:mod:`repro.perf.fastmatch`), sharing their state layout:

* :func:`flat_count_batch` **counts** — which graphs of a
  :class:`~repro.perf.flatgraph.FlatDB` contain the pattern — and
  :func:`flat_contains` asks the same of one free-standing graph;
* :func:`flat_embeddings` **enumerates** every embedding in one graph.

A scan loop that makes one Python call, a fresh ``bytearray`` used-mask,
five fresh per-depth lists and a counter flush **per graph** is
interpreter-bound however cheap the search is.  :func:`flat_count_batch`
fuses the admit prefilter and the descent over an entire (sorted)
candidate-gid list:

* plan state (anchor CSR arrays, label ids, degree requirements) is
  bound to locals **once per scan** instead of once per graph;
* matcher state lives in a reusable :class:`ScanArena` — preallocated
  assignment/cursor/limit/root stacks sized to the plan and a flat
  used-vertex mask sized to the largest graph in the
  :class:`~repro.perf.flatgraph.FlatDB`, surgically re-zeroed on
  backtrack/match instead of reallocated;
* admit verdicts come from the FlatDB's capped, weakly-keyed memo; a
  **full-database scan** additionally memoizes its admitted
  ``(gid, FlatGraph)`` list, so recount passes skip the per-gid memo
  probes entirely;
* work counters are tallied in locals and flushed to the global
  :data:`~repro.perf.counters.COUNTERS` once per scan.

Inside a search, candidates for an anchored position are the anchor
image's sub-run of the required edge-label id (one ``runs`` probe; rows
are sorted by ``(edge-label id, neighbor id)``), the remaining anchor
constraints bisect the candidate's own sub-run, and induced
non-adjacency is a linear scan of the candidate's row (rows are short;
only the AGM family asks).  No label objects are read and nothing is
allocated per node.

Support-threshold early termination extends the Geerts/Goethals/Van den
Bussche candidate bound (cs/0112007, already pruning join pairs and
levels in :mod:`repro.core.mergejoin`) down into the per-pattern verify
loop: with ``minsup > 0`` the scan aborts as soon as the graphs still
unscanned cannot lift the hit count to ``minsup`` (the pattern is
provably infrequent — an admitted graph is the only kind that can still
support it, so the bound uses the admitted count, which is tighter than
the raw candidate count); with ``need_tids=False`` it also aborts as
soon as ``minsup`` hits are in hand (frequency established, TID set not
wanted).  Either abort returns ``exact=False`` plus the list of
still-undecided gids, so callers memoizing per-graph verdicts
(:class:`~repro.perf.cache.SupportCache`) never cache a guess.

``vf2_calls`` counts searches entered here exactly as it does in the
reference matcher, so the two modes' work is comparable;
``flat_searches`` counts the kernels specifically.  The differential
suite pins both kernels against the recursive reference matcher across
label regimes and both matching semantics.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import NamedTuple

from .counters import COUNTERS
from .fastmatch import ADMIT, REJECT_QUICK, FlatPlan, flat_admits
from .flatgraph import ADMIT_MEMO_PLANS, FlatDB, FlatGraph


class ScanArena:
    """Reusable matcher state for the batched scan kernel.

    One arena serves any number of scans of any number of plans: the
    per-depth stacks and the used-vertex mask only ever *grow* (to the
    largest plan and graph seen), and every search leaves the mask
    all-zero behind it, so there is no per-scan reset cost and no state
    bleed between patterns — the arena-reuse differential test locks
    this down.  Arenas are single-threaded by design; use
    :func:`local_arena` for an implicit per-thread instance.
    """

    __slots__ = ("assigned", "cursor", "limit", "roots", "used")

    def __init__(self) -> None:
        self.assigned: list[int] = []
        self.cursor: list[int] = []
        self.limit: list[int] = []
        self.roots: list = []
        self.used = bytearray()

    def reserve(self, positions: int, vertices: int) -> None:
        """Grow the buffers to hold ``positions`` depths / ``vertices``."""
        grow = positions - len(self.assigned)
        if grow > 0:
            pad = [0] * grow
            self.assigned.extend(pad)
            self.cursor.extend(pad)
            self.limit.extend(pad)
            self.roots.extend([None] * grow)
        if len(self.used) < vertices:
            # A fresh bytearray is already all-zero — the mask invariant
            # (see class docstring) holds for the replacement too.
            self.used = bytearray(vertices)


_LOCAL = threading.local()


def local_arena() -> ScanArena:
    """This thread's shared :class:`ScanArena` (created on first use)."""
    arena = getattr(_LOCAL, "arena", None)
    if arena is None:
        arena = _LOCAL.arena = ScanArena()
    return arena


class BatchScan(NamedTuple):
    """Result of one :func:`flat_count_batch` scan."""

    support: int  #: hits found (lower bound when ``exact`` is False)
    hits: list  #: supporting gids, ascending (partial when not exact)
    exact: bool  #: False when an early exit left gids undecided
    undecided: list  #: gids neither rejected nor searched (early exit)
    searched: int  #: searches entered (== admitted gids scanned)
    rejected: int  #: gids dropped by the admit prefilter


def _admitted_pairs(plan: FlatPlan, flat: FlatDB, gids) -> tuple:
    """Split candidates into admitted ``(gid, FlatGraph)`` pairs + tallies.

    Returns ``(pairs, quick, finger, maxn)``.  Full-database scans
    (``gids is None``) are memoized per plan on the FlatDB — both sides
    are immutable, so repeated recounts of one database reduce the whole
    admit phase to a single dict probe.  A candidate list is admitted
    afresh: a merge candidate or relocated pattern meets one FlatDB
    once, and repeats are answered above the kernel.
    """
    memoize = gids is None
    if memoize:
        entry = flat.scan_memo.get(plan)
        if entry is not None:
            return entry
        gids = sorted(flat.flats)
    flats = flat.flats
    pairs = []
    quick = finger = maxn = 0
    for gid in gids:
        fg = flats.get(gid)
        if fg is None:
            continue
        reason = flat_admits(plan, fg)
        if reason == 0:
            pairs.append((gid, fg))
            if fg.n > maxn:
                maxn = fg.n
        elif reason == REJECT_QUICK:
            quick += 1
        else:
            finger += 1
    entry = (pairs, quick, finger, maxn)
    if memoize:
        if len(flat.scan_memo) >= ADMIT_MEMO_PLANS:
            flat.scan_memo.clear()
        flat.scan_memo[plan] = entry
    return entry


def _descend(plan, pairs, maxn, induced, minsup, need_tids, arena):
    """The existence descent over admitted ``(gid, FlatGraph)`` pairs.

    Returns ``(hits, stop_at)``: the gids whose graph contains the plan
    (in ``pairs`` order) and the index an early exit fired at, -1 when
    every pair was searched.  ``plan.n`` must be positive and ``maxn``
    at least the largest graph's vertex count.
    """
    n = plan.n
    admitted = len(pairs)
    hits: list = []
    if arena is None:
        arena = local_arena()
    arena.reserve(n, maxn)
    assigned = arena.assigned
    cursor = arena.cursor
    limit = arena.limit
    roots = arena.roots
    used = arena.used
    meta = plan.meta
    apos, aelab = plan.apos, plan.aelab
    npos = plan.npos
    empty = ()
    found = 0
    hits_append = hits.append
    stop_at = -1  # index where an early exit fired (-1: ran to the end)
    for idx, (gid, fg) in enumerate(pairs):
        if minsup:
            if found + admitted - idx < minsup or (
                not need_tids and found >= minsup
            ):
                stop_at = idx
                break
        if n == 1:
            # Admission guarantees a vertex of the right label (the
            # degree requirement is 0): always a hit, counted as a search.
            found += 1
            hits_append(gid)
            continue
        vlab = fg.vlab
        nbr = fg.nbr
        deg = fg.deg
        by_label = fg.by_label
        runs_get = fg.runs.get
        # Iterative descent: "enter" computes the candidate scan bounds
        # of the current depth, "advance" walks them to the next feasible
        # candidate; scan state is spilled to cursor/limit/roots only
        # when a depth suspends on a match, restored only on backtrack.
        # Per-depth plan constants come from the plan's packed ``meta``
        # rows: one list index + tuple unpack per node entry.
        depth = 0
        entering = True
        hit = False
        while True:
            (
                a0, a1, n0, n1, want_label, need_deg,
                apos0, aelab0, multi,
            ) = meta[depth]
            if entering:
                if apos0 >= 0:
                    # Anchored: the anchor image's sub-run of the
                    # required edge-label id, via one runs probe.
                    root = None
                    run = runs_get(assigned[apos0] << 32 | aelab0)
                    if run is None:
                        i = end = 0
                    else:
                        i, end = run
                else:
                    root = by_label.get(want_label, empty)
                    i = 0
                    end = len(root)
            else:
                root = roots[depth]
                i = cursor[depth]
                end = limit[depth]
            anchored = root is None
            seq = nbr if anchored else root
            cand = -1
            while i < end:
                c = seq[i]
                i += 1
                if used[c]:
                    continue
                if anchored and vlab[c] != want_label:
                    continue
                if deg[c] < need_deg:
                    continue
                if multi:
                    ok = True
                    for j in range(a0 + 1, a1):
                        # Is (c, image of apos[j]) an aelab[j]-edge?
                        run = runs_get(c << 32 | aelab[j])
                        if run is None:
                            ok = False
                            break
                        target = assigned[apos[j]]
                        lo, hi = run
                        k = bisect_left(nbr, target, lo, hi)
                        if k >= hi or nbr[k] != target:
                            ok = False
                            break
                    if not ok:
                        continue
                if induced and n1 > n0:
                    indptr = fg.indptr
                    ok = True
                    for j in range(n0, n1):
                        target = assigned[npos[j]]
                        for k in range(indptr[c], indptr[c + 1]):
                            if nbr[k] == target:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        continue
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
                    hit = True
                    break
                entering = True
            else:
                depth -= 1
                if depth < 0:
                    break
                used[assigned[depth]] = 0
                entering = False
        if hit:
            found += 1
            hits_append(gid)
            # The search suspended mid-match: unwind the mask so the
            # arena invariant (all-zero between searches) holds.
            for d in range(n):
                used[assigned[d]] = 0
    return hits, stop_at


def flat_count_batch(
    plan: FlatPlan,
    flat: FlatDB,
    gids=None,
    induced: bool = False,
    minsup: int = 0,
    need_tids: bool = True,
    arena: ScanArena | None = None,
) -> BatchScan:
    """Count the graphs of ``flat`` containing ``plan``, in one frame.

    ``gids`` is the candidate list — **sorted ascending** (callers sort;
    deterministic replay wants it), or ``None``
    to scan the whole database via the memoized full-scan admit list.
    Gids absent from the database are skipped silently, exactly like the
    per-graph loop they replace.

    ``minsup`` enables the early exits described in the module
    docstring (0 disables both); ``minsup`` must already be adjusted for
    hits the caller has in hand from elsewhere (cache probes, seeded
    TID lists).  Per-graph verdicts — monomorphism by default, induced
    with ``induced=True`` — equal the reference matcher's.

    Every admit rejection ticks ``quick_rejects``/``fingerprint_rejects``
    and every search entered ticks ``vf2_calls`` + ``flat_searches``,
    flushed in one batch at the end of the scan.
    """
    n = plan.n
    if n == 0:
        # Empty pattern: embeds everywhere.
        hits = sorted(flat.flats) if gids is None else [
            gid for gid in gids if gid in flat.flats
        ]
        return BatchScan(len(hits), hits, True, [], 0, 0)

    pairs, quick, finger, maxn = _admitted_pairs(plan, flat, gids)
    admitted = len(pairs)
    hits: list = []
    undecided: list = []
    searched = 0
    exact = True

    if minsup and admitted < minsup:
        # The verify-level candidate bound: even if every admitted graph
        # matched, support cannot reach minsup — skip the searches.
        undecided = [gid for gid, _ in pairs]
        exact = False
    elif admitted:
        hits, stop_at = _descend(
            plan, pairs, maxn, induced, minsup, need_tids, arena
        )
        if stop_at >= 0:
            exact = False
            undecided = [gid for gid, _ in pairs[stop_at:]]
            searched = stop_at
        else:
            searched = admitted

    if quick:
        COUNTERS.inc("quick_rejects", quick)
    if finger:
        COUNTERS.inc("fingerprint_rejects", finger)
    if searched:
        COUNTERS.inc("vf2_calls", searched)
        COUNTERS.inc("flat_searches", searched)
    return BatchScan(
        len(hits), hits, exact, undecided, searched, quick + finger
    )


def flat_contains(plan: FlatPlan, fg: FlatGraph, induced: bool = False) -> bool:
    """True if ``plan`` embeds in the one flat graph ``fg``.

    The single-pair form of :func:`flat_count_batch` — the same admit
    prefilter, the same descent, the same counters — for callers that
    hold a free-standing graph rather than a database
    (:func:`repro.graph.isomorphism.subgraph_exists`).
    """
    if plan.n == 0:
        return True
    reason = flat_admits(plan, fg)
    if reason != ADMIT:
        COUNTERS.inc(
            "quick_rejects" if reason == REJECT_QUICK else "fingerprint_rejects"
        )
        return False
    hits, _ = _descend(plan, ((0, fg),), fg.n, induced, 0, True, None)
    COUNTERS.inc("vf2_calls")
    COUNTERS.inc("flat_searches")
    return bool(hits)


def flat_embeddings(
    plan: FlatPlan,
    fg: FlatGraph,
    roots=None,
    arena: ScanArena | None = None,
    within=None,
):
    """Yield every embedding of ``plan`` in the flat graph ``fg``, once.

    The enumerating sibling of :func:`flat_count_batch`: the same
    iterative descent over the same plan rows and ``runs`` / ``by_label``
    probes, but a full assignment is *handed to the caller* and the
    search backtracks instead of returning.  Each item is the arena's
    assignment buffer — ``item[d]`` is the image of plan position ``d``
    (pattern vertex ``plan.order[d]``) for ``d < plan.n`` — valid until
    the generator is resumed; copy it to keep it.  Monomorphism semantics
    only (the set of mappings equals the reference matcher's in
    :mod:`repro.graph.isomorphism`).

    ``roots`` restricts the depth-0 candidates to the given vertex ids
    (those carrying another label are skipped); the default is every
    vertex of the depth-0 label.  ``within(depth, vertex)``, when given,
    is asked once per structurally feasible candidate before it is
    assigned; a false answer prunes that subtree (for caller constraints
    that only tighten along a descent).  The arena's all-zero mask invariant
    holds once the generator is exhausted *or closed*.  One enumeration
    ticks ``vf2_calls`` / ``flat_searches`` once and adds its yield
    count to ``flat_embeddings``, flushed when it ends.
    """
    n = plan.n
    if arena is None:
        arena = local_arena()
    arena.reserve(n, fg.n)
    assigned = arena.assigned
    if n == 0:
        yield assigned
        return
    if flat_admits(plan, fg) != ADMIT:
        return
    cursor = arena.cursor
    limit = arena.limit
    rootsat = arena.roots
    used = arena.used
    meta = plan.meta
    apos, aelab = plan.apos, plan.aelab
    vlab = fg.vlab
    nbr = fg.nbr
    deg = fg.deg
    by_label = fg.by_label
    runs_get = fg.runs.get
    if roots is not None:
        want = plan.vlabs[0]
        roots = [v for v in roots if vlab[v] == want]
    empty = ()
    last = n - 1
    found = 0
    depth = 0
    entering = True
    try:
        while True:
            (
                a0, a1, _n0, _n1, want_label, need_deg,
                apos0, aelab0, multi,
            ) = meta[depth]
            if entering:
                if apos0 >= 0:
                    root = None
                    run = runs_get(assigned[apos0] << 32 | aelab0)
                    if run is None:
                        i = end = 0
                    else:
                        i, end = run
                else:
                    if depth == 0 and roots is not None:
                        root = roots
                    else:
                        root = by_label.get(want_label, empty)
                    i = 0
                    end = len(root)
            else:
                root = rootsat[depth]
                i = cursor[depth]
                end = limit[depth]
            anchored = root is None
            seq = nbr if anchored else root
            cand = -1
            while i < end:
                c = seq[i]
                i += 1
                if used[c]:
                    continue
                if anchored and vlab[c] != want_label:
                    continue
                if deg[c] < need_deg:
                    continue
                if multi:
                    ok = True
                    for j in range(a0 + 1, a1):
                        run = runs_get(c << 32 | aelab[j])
                        if run is None:
                            ok = False
                            break
                        target = assigned[apos[j]]
                        lo, hi = run
                        k = bisect_left(nbr, target, lo, hi)
                        if k >= hi or nbr[k] != target:
                            ok = False
                            break
                    if not ok:
                        continue
                if within is not None and not within(depth, c):
                    continue
                if depth == last:
                    # Full assignment: hand it over and keep scanning
                    # this depth — the leaf never enters the mask.
                    assigned[depth] = c
                    found += 1
                    yield assigned
                    continue
                cand = c
                break
            if cand >= 0:
                rootsat[depth] = root
                cursor[depth] = i
                limit[depth] = end
                assigned[depth] = cand
                used[cand] = 1
                depth += 1
                entering = True
            else:
                depth -= 1
                if depth < 0:
                    break
                used[assigned[depth]] = 0
                entering = False
    finally:
        # A closed (abandoned) enumeration suspends mid-descent: unwind
        # the mask so the arena invariant holds for the next search.
        for d in range(depth):
            used[assigned[d]] = 0
        COUNTERS.inc("vf2_calls")
        COUNTERS.inc("flat_searches")
        if found:
            COUNTERS.inc("flat_embeddings", found)
