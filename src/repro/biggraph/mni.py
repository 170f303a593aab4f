"""Minimum-image-based (MNI) support over a neighborhood decomposition.

Raw embedding counts are not anti-monotone on a single graph, so
single-graph mining uses Bringmann & Nijssen's minimum-image support:
with ``I(u) = {f(u) : f an embedding of P}``, ``mni(P) = min over u of
|I(u)|``.  An embedding counts iff a unit of the r-neighborhood
decomposition (:mod:`repro.biggraph.extract`) contains it, i.e. iff the
balls ``ball_r(x)`` of its image vertices meet in a pivot — one of its
*supporting pivots*.  Their union over the embeddings is the pattern's
pivot support set: the units that contain it.

**Enumerate once, test visibility** (``perf.enabled()``, the default).
A canonical pattern is enumerated once on the big graph's
:class:`~repro.perf.FlatGraph` (:func:`repro.perf.flat_embeddings`),
rooted at a centre vertex, carrying the ball intersection down the
descent so that an embedding no pivot sees is pruned with its subtree.
When every vertex is a pivot and ``pattern_radius(P) <= r`` the
centre's image is such a pivot and the test is skipped.  A sound
superset of the supporting pivots narrows the test and seeds the roots.
1-edge patterns take one pass over the edges instead.

**Reference fold** (``perf.disabled()`` / ``--no-accel``).  *Locate* the
units containing the pattern (:func:`repro.graph.isomorphism.\
count_support`), then *fold* :func:`~repro.graph.isomorphism.\
find_embeddings` over them through the deterministic
:func:`~repro.biggraph.extract.neighborhood_vertices` order.  It shares
no matching code with the kernel: it is the oracle.

**Exactness.** With every vertex a pivot the count of a pattern of
radius ≤ r *is* the graph's MNI; beyond r it is a deterministic lower
bound, which the dump header marks (DESIGN.md §16).  Both paths run on
the canonical graph and break argmin ties by ``(image count, canonical
vertex id)``, so the TID list — the argmin image set — is a pure
function of the isomorphism class and the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import perf
from ..graph.canonical import canonical_form, min_dfs_code
from ..graph.database import GraphDatabase
from ..graph.isomorphism import count_support, find_embeddings
from ..graph.labeled_graph import LabeledGraph
from ..mining.base import Pattern, PatternSet
from .extract import neighborhood_vertices

#: The kernel's work tallies, ``MNISupport.stats`` keys.
_WORK = ("roots_tried", "embeddings", "visibility_checks", "invisible")


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
    """Radius (minimum eccentricity) of a connected pattern graph: MNI
    is exact for patterns with ``pattern_radius(P) <= r``.  Raises on a
    disconnected graph, which has no finite radius."""
    radius = pattern_centre(graph)[1] if graph.num_vertices else 0
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

    ``database`` is the ``radius``-decomposition of ``graph``
    (:class:`~repro.biggraph.extract.NeighborhoodExtractor`, in memory or
    stored).  The kernel reads only its gids, the pivots; the reference
    fold reads its units.  ``stats`` tallies the kernel's work so far.
    """

    def __init__(
        self, graph: LabeledGraph, database: GraphDatabase, radius: int
    ) -> None:
        if radius < 0:
            raise ValueError(f"radius must be >= 0: {radius}")
        self.graph = graph
        self.database = database
        self.radius = radius
        self.stats = dict.fromkeys(_WORK, 0)
        self._pivots = frozenset(database.gids() if database else ())
        self._all_pivots = len(self._pivots) == graph.num_vertices
        self._balls: dict[int, frozenset[int]] = {}
        self._flat: perf.FlatGraph | None = None
        self._arena = perf.ScanArena()

    @classmethod
    def over_pivots(cls, graph: LabeledGraph, pivots, radius: int):
        """A counter for the kernel alone: ``pivots`` instead of the
        neighborhood database, which only the reference fold reads."""
        counter = cls(graph, None, radius)
        counter._pivots = frozenset(pivots)
        counter._all_pivots = len(counter._pivots) == graph.num_vertices
        return counter

    # ------------------------------------------------------------------
    def count(
        self,
        pattern: LabeledGraph,
        key: tuple | None = None,
        candidate_gids: set[int] | None = None,
    ) -> MNICount:
        """The MNI count of ``pattern``, given a sound superset of its
        supporting pivots (e.g. its TID list); ``key`` is not needed."""
        return min_image(self.measure(_canonical(pattern), candidate_gids)[0])

    def measure(
        self, canon: LabeledGraph, pivots=None, roots=None, tally=False
    ) -> tuple[list[set[int]], frozenset[int] | None]:
        """``(image sets, supporting pivots)`` of a canonical pattern,
        given sound supersets of the supporting pivots and (kernel only)
        of the centre's images.  The pivots are ``None`` when the kernel
        skips the visibility test and ``tally`` is false."""
        if perf.enabled():
            return self._enumerate(canon, pivots, roots, tally)
        return self._fold(canon, pivots)

    def _fold(self, canon, candidate_gids):
        """Reference path: locate supporting pivots, fold their units."""
        _support, pivots = count_support(canon, self.database, candidate_gids)
        images: list[set[int]] = [set() for _ in canon.vertices()]
        for pivot in sorted(pivots):
            order = neighborhood_vertices(self.graph, pivot, self.radius)
            unit = self.database[pivot]
            for mapping in find_embeddings(canon, unit):
                for pv, local in mapping.items():
                    images[pv].add(order[local])
        return images, frozenset(pivots)

    def _enumerate(self, canon, pivots, roots, tally):
        """Accelerated path: one rooted enumeration on the flat graph."""
        n = canon.num_vertices
        if n == 0:
            return [], frozenset()
        if self._flat is None:
            self._flat = perf.FlatGraph.from_labeled(self.graph)
        centre, ecc = pattern_centre(canon)
        # With every vertex a pivot, the centre's image of a radius <= r
        # pattern is itself a pivot whose ball holds the embedding.
        checked = tally or not (self._all_pivots and ecc <= self.radius)
        plan = perf.FlatPlan(canon, start=centre)
        seeded = pivots is not None
        pivots = self._pivots.intersection(pivots) if seeded else self._pivots
        if roots is None and seeded and not checked:
            roots = pivots
        within = None
        checks = invisible = 0
        seen: set[int] = set()
        if checked:
            # common[d]: the pivots whose ball holds images 0..d-1.  It
            # only shrinks along a descent, so an empty one prunes.
            common = [pivots] * (n + 1)
            ball = self._ball
            if roots is None and seeded:
                roots = frozenset().union(*map(ball, pivots))

            def within(depth: int, vertex: int) -> bool:
                nonlocal checks, invisible
                checks += 1
                visible = common[depth + 1] = common[depth] & ball(vertex)
                if visible:
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
            if checked:
                seen |= common[n]
        self._tally(len(roots or ()), embeddings, checks, invisible)
        return images, frozenset(seen) if checked else None

    def _tally(self, *work: int) -> None:
        for name, amount in zip(_WORK, work):
            self.stats[name] += amount

    def _ball(self, vertex: int) -> frozenset[int]:
        ball = self._balls.get(vertex)
        if ball is None:
            ball = self._balls[vertex] = frozenset(
                neighborhood_vertices(self.graph, vertex, self.radius)
            )
        return ball

    # ------------------------------------------------------------------
    def edge_patterns(self, tally: bool = False) -> list[tuple]:
        """``(canonical graph, key, image sets, supporting pivots)`` of
        every 1-edge pattern, as :meth:`measure` has them, from one pass
        over the edges: an edge is visible iff some pivot's ball holds
        both ends (so radius 0 sees none).  The reference path folds each
        label triple over the units of the pivots that see its edges.
        """
        labels = self.graph.vertex_labels()
        forms: dict[tuple, tuple] = {}
        found: dict[tuple, list] = {}
        fold = not perf.enabled()
        checked = fold or tally or not (
            self._all_pivots and self.radius >= 1
        )
        pivots, ball = self._pivots, self._ball
        checks = invisible = embeddings = 0
        for u, v, label in self.graph.edges():
            triple = (labels[u], label, labels[v])
            form = forms.get(triple)
            if form is None:
                edge = LabeledGraph.single_edge(*triple)
                key, orders = form = forms[triple] = canonical_form(edge)
                canon = edge.induced_subgraph(orders[0])
                found.setdefault(key, [canon, [set(), set()], set()])
            key, orders = form
            _canon, images, seen = found[key]
            if checked:
                checks += 1
                visible = ball(u) & ball(v) & pivots
                if not visible:
                    invisible += 1
                    continue
                seen |= visible
            if fold:
                continue
            ends = (u, v)
            for order in orders:
                images[0].add(ends[order[0]])
                images[1].add(ends[order[1]])
            embeddings += len(orders)
        self._tally(0, embeddings, checks, invisible)
        if fold:
            return [
                (canon, key, *self._fold(canon, seen))
                for key, (canon, _images, seen) in found.items()
            ]
        return [
            (canon, key, images, frozenset(seen) if checked else None)
            for key, (canon, images, seen) in found.items()
        ]

    # ------------------------------------------------------------------
    def verify(
        self, candidates: PatternSet, min_support: int
    ) -> PatternSet:
        """Re-verify a transactional candidate set under MNI.

        Each candidate's TID list seeds its count; survivors carry the
        MNI count as ``support`` and the argmin image set as ``tids``.
        ``stats['lower_bound_patterns']`` counts those of radius ``> r``.
        """
        verified = PatternSet()
        lower_bound = 0
        for candidate in candidates:
            canon = _canonical(candidate.graph)
            count = min_image(self.measure(canon, candidate.tids)[0])
            if count.support < min_support:
                continue
            lower_bound += pattern_centre(canon)[1] > self.radius
            verified.add(
                Pattern(canon, candidate.key, count.support, count.min_image)
            )
        self.stats.update(
            candidates=len(candidates),
            survivors=len(verified),
            lower_bound_patterns=lower_bound,
        )
        return verified


def min_image(images: list[set[int]]) -> MNICount:
    """The MNI count of per-vertex image sets: the smallest set, ties
    broken by the lowest canonical vertex id."""
    if not images:
        return MNICount(0, 0, frozenset())
    vertex = min(range(len(images)), key=lambda v: (len(images[v]), v))
    return MNICount(len(images[vertex]), vertex, frozenset(images[vertex]))


def pattern_centre(graph: LabeledGraph) -> tuple[int, float]:
    """``(centre vertex, its eccentricity)``: the lowest-id vertex of
    minimum eccentricity, where a rooted enumeration starts."""
    eccs = _eccentricities(graph)
    ecc = min(eccs)
    return eccs.index(ecc), ecc


def _canonical(pattern: LabeledGraph) -> LabeledGraph:
    """The pattern's min-DFS-code graph (itself when it has no edges)."""
    if pattern.num_edges:
        return min_dfs_code(pattern).to_graph()
    return pattern
