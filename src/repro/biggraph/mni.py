"""Minimum-image-based (MNI) support over a neighborhood decomposition.

Raw embedding counts are not anti-monotone on a single graph (a larger
pattern can have *more* embeddings than a sub-pattern), so single-graph
mining uses the minimum-image support of Bringmann & Nijssen: for a
pattern ``P`` with vertices ``u``, collect the *image set* ``I(u) =
{f(u) : f an embedding of P}`` and define ::

    mni(P)  =  min over u of |I(u)|

which is anti-monotone — deleting a pattern vertex can only grow the
remaining image sets.

This module computes MNI *through* the r-neighborhood decomposition
(:mod:`repro.biggraph.extract`): an embedding counts iff some unit
contains it.  Units are *induced* subgraphs over the pivots' r-balls,
so that is a predicate on the embedding's image — it lies inside
``ball_r(p)`` for some pivot ``p``, i.e. ``∩ ball_r(x)`` over the image
vertices ``x`` meets the pivot set.

**Enumerate once, test visibility** (``perf.enabled()``, the default).
The big graph is compiled to one :class:`~repro.perf.FlatGraph`; each
pattern's canonical graph is enumerated *once* on it by
:func:`repro.perf.flat_embeddings`, rooted at a centre vertex of the
pattern, global vertex ids throughout.  The ball intersection (balls
memoised per vertex) is carried along the descent, so a partial image
no pivot can see is pruned with its subtree.  When every vertex is a
pivot and ``pattern_radius(P) <= r`` the centre's image is such a pivot
by construction and the test is skipped.  A caller's ``candidate_gids``
(a sound superset of the supporting pivots) seeds the roots: the
centre's image is a supporting pivot in the skipped case and lies in
some candidate's ball otherwise.  The neighborhood database contributes
only its gids; a store-backed one is never decoded.

**Reference fold** (``perf.disabled()`` / ``--no-accel``).  *Locate*
the pivots whose units contain the pattern with
:func:`repro.graph.isomorphism.count_support`, then *fold*
:func:`~repro.graph.isomorphism.find_embeddings` over each supporting
unit, translating unit-local vertices to global ids via the
deterministic :func:`~repro.biggraph.extract.neighborhood_vertices`
order; the global image sets deduplicate an embedding seen from several
units.  It shares no matching code with the kernel, which is what makes
it the oracle (tests, the benchmark ladder's precision check).

**Exactness.** With unrestricted pivots, every embedding of a pattern
whose radius is ≤ r lies inside the neighborhood of the image of one of
its center vertices, so the image sets are complete and the count *is*
the graph's exact MNI.  For patterns of radius > r (possible when
``max_size`` allows them) the count is a deterministic **lower bound**
— embeddings spanning more than r hops from every vertex are invisible
to the decomposition; :meth:`MNISupport.verify` counts the emitted
patterns this applies to for the dump header (DESIGN.md §16).

Determinism down to bytes: both paths run on the pattern's *canonical*
(min-DFS-code) graph, so the per-vertex image sets — and the argmin
vertex, tie-broken by ``(image count, canonical vertex id)`` — are pure
functions of the isomorphism class and the input graph.  The reported
TID list is the argmin vertex's image set, which satisfies the pattern
store's ``support == len(tids)`` invariant and makes serial, sharded
and accel-matrix runs dump byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import perf
from ..graph.canonical import min_dfs_code
from ..graph.database import GraphDatabase
from ..graph.isomorphism import count_support, find_embeddings
from ..graph.labeled_graph import LabeledGraph
from ..mining.base import Pattern, PatternSet
from .extract import neighborhood_vertices


def _eccentricities(graph: LabeledGraph) -> list[float]:
    """Per-vertex eccentricity; ``inf`` throughout a disconnected graph."""
    n = graph.num_vertices
    eccs: list[float] = []
    for start in range(n):
        depth = {start: 0}
        frontier = [start]
        ecc = 0
        while frontier:
            nxt = []
            for v in frontier:
                for w in graph.neighbor_ids(v):
                    if w not in depth:
                        depth[w] = depth[v] + 1
                        ecc = depth[w]
                        nxt.append(w)
            frontier = nxt
        eccs.append(ecc if len(depth) == n else float("inf"))
    return eccs


def pattern_radius(graph: LabeledGraph) -> int:
    """Radius (minimum eccentricity) of a connected pattern graph.

    The quantity the exactness guarantee is stated in: neighborhood
    MNI is exact for patterns with ``pattern_radius(P) <= r``.
    Disconnected graphs have no finite radius; miners only emit
    connected patterns, so this raises on disconnected input.
    """
    radius = min(_eccentricities(graph), default=0)
    if radius == float("inf"):
        raise ValueError("pattern_radius requires a connected graph")
    return radius


@dataclass(frozen=True)
class MNICount:
    """One pattern's minimum-image count and its witness."""

    #: ``min over u of |I(u)|`` — the MNI support.
    support: int
    #: Canonical pattern vertex realizing the minimum (ties broken by
    #: lowest vertex id).
    vertex: int
    #: The argmin vertex's image set: global vertex ids of the big
    #: graph.  ``len(min_image) == support`` — this is what rides in a
    #: :class:`~repro.mining.base.Pattern`'s TID list.
    min_image: frozenset[int]


class MNISupport:
    """MNI counter over one big graph and its neighborhood database.

    ``database`` must be the ``radius``-decomposition of ``graph``
    produced by :class:`~repro.biggraph.extract.NeighborhoodExtractor`
    (in-memory or a storage-backend view).  The accelerated path reads
    only its gids — the pivot set — and compiles ``graph`` to flat form
    once per instance; the reference path (``perf.disabled()``) scans
    and folds its units.  ``stats`` tallies the work of every
    :meth:`count` so far (plus :meth:`verify`'s pass totals).
    """

    def __init__(
        self,
        graph: LabeledGraph,
        database: GraphDatabase,
        radius: int,
    ) -> None:
        if radius < 0:
            raise ValueError(f"radius must be >= 0: {radius}")
        self.graph = graph
        self.database = database
        self.radius = radius
        self.stats = dict.fromkeys(
            ("roots_tried", "embeddings", "visibility_checks", "invisible"),
            0,
        )
        self._pivots = frozenset(database.gids())
        self._all_pivots = len(self._pivots) == graph.num_vertices
        self._balls: dict[int, frozenset[int]] = {}
        self._flat: perf.FlatGraph | None = None
        self._arena = perf.ScanArena()

    # ------------------------------------------------------------------
    def count(
        self,
        pattern: LabeledGraph,
        key: tuple | None = None,
        candidate_gids: set[int] | None = None,
    ) -> MNICount:
        """The MNI count of ``pattern``.

        ``candidate_gids`` is a sound superset of the supporting pivots
        (e.g. the transactional TID list of a mined candidate): it seeds
        the enumeration's roots (reference path: the locate scan), so
        the cost scales with the candidates instead of the graph.
        ``key`` is forwarded to the reference path's locate scan only.
        """
        return self._count(_canonical(pattern), key, candidate_gids)

    def _count(self, canon, key, candidate_gids) -> MNICount:
        if perf.enabled():
            images = self._enumerate(canon, candidate_gids)
        else:
            images = self._fold(canon, key, candidate_gids)
        if not images:
            return MNICount(0, 0, frozenset())
        vertex = min(
            range(len(images)), key=lambda v: (len(images[v]), v)
        )
        return MNICount(
            support=len(images[vertex]),
            vertex=vertex,
            min_image=frozenset(images[vertex]),
        )

    def _fold(self, canon, key, candidate_gids) -> list[set[int]]:
        """Reference path: locate supporting pivots, fold their units."""
        _support, pivots = count_support(
            canon, self.database, candidate_gids=candidate_gids, key=key
        )
        images: list[set[int]] = [
            set() for _ in range(canon.num_vertices)
        ]
        for pivot in sorted(pivots):
            order = neighborhood_vertices(self.graph, pivot, self.radius)
            unit = self.database[pivot]
            for mapping in find_embeddings(canon, unit):
                for pv, local in mapping.items():
                    images[pv].add(order[local])
        return images

    def _enumerate(self, canon, candidate_gids) -> list[set[int]]:
        """Accelerated path: one rooted enumeration on the flat graph."""
        n = canon.num_vertices
        if n == 0:
            return []
        if self._flat is None:
            self._flat = perf.FlatGraph.from_labeled(self.graph)
        eccs = _eccentricities(canon)
        centre = eccs.index(min(eccs))
        # With every vertex a pivot, the centre's image of a radius <= r
        # pattern is itself a pivot whose ball holds the embedding.
        checked = not (self._all_pivots and eccs[centre] <= self.radius)
        plan = perf.FlatPlan(canon, start=centre)
        pivots = self._pivots
        if candidate_gids is not None:
            pivots = pivots.intersection(candidate_gids)
        roots = None if candidate_gids is None else pivots
        within = None
        checks = invisible = 0
        if checked:
            # common[d]: the pivots whose ball holds images 0..d-1.  It
            # only shrinks along a descent, so an empty one prunes.
            common = [pivots] * (n + 1)
            ball = self._ball
            if roots is not None:
                roots = frozenset().union(*map(ball, pivots))

            def within(depth: int, vertex: int) -> bool:
                nonlocal checks, invisible
                checks += 1
                seen = common[depth + 1] = common[depth] & ball(vertex)
                if seen:
                    return True
                invisible += 1
                return False

        images: list[set[int]] = [set() for _ in range(n)]
        adders = [images[v].add for v in plan.order]
        embeddings = 0
        for assigned in perf.flat_embeddings(
            plan, self._flat, roots, self._arena, within
        ):
            embeddings += 1
            for add, image in zip(adders, assigned):
                add(image)
        stats = self.stats
        stats["roots_tried"] += 0 if roots is None else len(roots)
        stats["embeddings"] += embeddings
        stats["visibility_checks"] += checks
        stats["invisible"] += invisible
        return images

    def _ball(self, vertex: int) -> frozenset[int]:
        ball = self._balls.get(vertex)
        if ball is None:
            ball = self._balls[vertex] = frozenset(
                neighborhood_vertices(self.graph, vertex, self.radius)
            )
        return ball

    # ------------------------------------------------------------------
    def verify(
        self, candidates: PatternSet, min_support: int
    ) -> PatternSet:
        """Re-verify a transactional candidate set under MNI.

        Each candidate's neighborhood TID list seeds its count;
        survivors carry their MNI count as ``support`` and the argmin
        image set as ``tids`` (so ``support == len(tids)`` holds for
        the pattern store).  The output is a pure function of the
        candidate *keys* and the big graph — the property the
        serial-vs-sharded byte-identity test pins down.
        ``stats['lower_bound_patterns']`` counts the survivors of radius
        ``> r``, whose support is a lower bound (module docstring).
        """
        verified = PatternSet()
        lower_bound = 0
        for candidate in candidates:
            canon = _canonical(candidate.graph)
            count = self._count(canon, candidate.key, candidate.tids)
            if count.support < min_support:
                continue
            lower_bound += min(_eccentricities(canon)) > self.radius
            verified.add(
                Pattern(
                    graph=canon,
                    key=candidate.key,
                    support=count.support,
                    tids=count.min_image,
                )
            )
        self.stats.update(
            candidates=len(candidates),
            survivors=len(verified),
            lower_bound_patterns=lower_bound,
        )
        return verified


def _canonical(pattern: LabeledGraph) -> LabeledGraph:
    """The pattern's min-DFS-code graph (itself when it has no edges)."""
    if pattern.num_edges:
        return min_dfs_code(pattern).to_graph()
    return pattern
