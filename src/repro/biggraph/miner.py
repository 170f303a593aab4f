"""BigGraphMiner: frequent-pattern growth on one large graph.

Level 1 is one pass over the graph's edges; each later level extends
every kept pattern by one frequent edge (to a new vertex or as a chord),
deduplicated by canonical code and measured once by
:class:`~repro.biggraph.mni.MNISupport`.  ``mni`` mode keeps ``P`` iff
``mni(P) >= t`` and its pivot support (counted unless implied) ``>= t``;
``neighborhood`` mode keeps it iff its pivot support ``>= t`` and
reports the supporting pivots as TIDs.  Both counts are anti-monotone,
so this is exactly the decomposition-then-verify answer (DESIGN.md
§16).  Thresholds are absolute counts: one graph has no size to take a
fraction of.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .. import obs, perf
from ..graph.canonical import canonical_form
from ..graph.labeled_graph import Label, LabeledGraph
from ..mining.base import Pattern, PatternSet
from .extract import NeighborhoodExtractor
from .mni import MNISupport, min_image, pattern_centre

SUPPORT_MODES = ("mni", "neighborhood")


@dataclass
class BigGraphResult:
    """Output of one big-graph mining run."""

    #: Final pattern set under the chosen support semantics.
    patterns: PatternSet
    #: Patterns measured during growth, 1-edge label triples included.
    candidates: int
    threshold: int
    radius: int
    support_mode: str
    #: Number of pivot vertices.
    pivots: int
    mine_time: float = 0.0
    #: Emitted patterns of radius > ``radius``: under MNI their support
    #: is a lower bound (DESIGN.md §16), never an unmarked number.
    lower_bound_patterns: int = 0
    pivot_labels: frozenset[Label] | None = None

    def meta(self) -> dict:
        """Header metadata for canonical pattern dumps."""
        meta = {
            "workload": "biggraph",
            "radius": self.radius,
            "support_mode": self.support_mode,
            "threshold": self.threshold,
            "pivots": self.pivots,
            "lower_bound_patterns": self.lower_bound_patterns,
        }
        if self.pivot_labels is not None:
            meta["pivot_labels"] = sorted(self.pivot_labels, key=repr)
        return meta


@dataclass
class _Kept:
    """A kept pattern and what its children are bounded by."""

    pattern: Pattern
    images: list[set[int]]
    pivots: frozenset[int] | None


@dataclass
class BigGraphMiner:
    """Frequent neighborhood-pattern miner for one large graph.

    ``radius`` is the ball radius ``r``: MNI counts are exact for
    patterns of radius ≤ r and lower bounds beyond (DESIGN.md §16).
    ``support_mode`` is ``'mni'`` (minimum-image support, default) or
    ``'neighborhood'`` (support = pivots whose r-neighborhood contains
    the pattern, TIDs = those pivots).  ``pivot_labels`` restricts the
    pivots to these vertex labels (pivot-anchored semantics; ``None``:
    every vertex).  ``max_size`` bounds pattern size in edges.
    """

    radius: int = 1
    support_mode: str = "mni"
    pivot_labels: frozenset[Label] | None = None
    max_size: int | None = None

    def __post_init__(self) -> None:
        if self.support_mode not in SUPPORT_MODES:
            raise ValueError(
                f"unknown support_mode {self.support_mode!r} (expected "
                f"one of {', '.join(SUPPORT_MODES)})"
            )

    def mine(
        self, graph: LabeledGraph, min_support: int
    ) -> BigGraphResult:
        """Mine the frequent neighborhood patterns of ``graph``."""
        threshold = int(min_support)
        if threshold != min_support or threshold < 1:
            raise ValueError(
                "big-graph support must be an absolute count >= 1, "
                f"got {min_support!r}"
            )
        extractor = NeighborhoodExtractor(self.radius, self.pivot_labels)
        pivots = extractor.pivots(graph)
        t0 = time.perf_counter()
        with obs.span(
            "biggraph.mine", radius=self.radius, mode=self.support_mode
        ) as span:
            if perf.enabled():
                counter = MNISupport.over_pivots(graph, pivots, self.radius)
            else:
                with obs.span("biggraph.extract", radius=self.radius):
                    database = extractor.extract(graph)
                counter = MNISupport(graph, database, self.radius)
            patterns, candidates = self._grow(counter, threshold)
            lower_bound = sum(
                pattern_centre(p.graph)[1] > self.radius for p in patterns
            ) if self.support_mode == "mni" else 0
            span.set_attrs(
                candidates=candidates,
                patterns=len(patterns),
                lower_bound_patterns=lower_bound,
            )
        return BigGraphResult(
            patterns=patterns,
            candidates=candidates,
            threshold=threshold,
            radius=self.radius,
            support_mode=self.support_mode,
            pivots=len(pivots),
            mine_time=time.perf_counter() - t0,
            lower_bound_patterns=lower_bound,
            pivot_labels=extractor.pivot_labels,
        )

    def _grow(
        self, counter: MNISupport, threshold: int
    ) -> tuple[PatternSet, int]:
        """Level-wise growth; returns ``(kept patterns, candidates)``."""
        tally = self.support_mode == "neighborhood"
        patterns = PatternSet()
        candidates, size = 0, 1
        level: list[_Kept] = []
        # Frequent edges: end label -> (edge label, other end's label)
        # -> (images at this end, at the other end, supporting pivots).
        edges: dict[Label, dict[tuple, tuple]] = {}
        while size == 1 or level:
            with obs.span("biggraph.grow", size=size) as span:
                before = dict(counter.stats)
                if size == 1:
                    measured = counter.edge_patterns(tally)
                else:
                    children = _extensions(
                        level, edges, threshold, 1 if tally else threshold
                    )
                    measured = [
                        (canon, key, *counter.measure(
                            canon, pivots, roots, tally
                        ))
                        for key, (canon, pivots, roots) in children.items()
                    ]
                level = []
                for canon, key, images, pivots in measured:
                    if tally:
                        support, tids = len(pivots), pivots
                    elif pivots is None or len(pivots) >= threshold:
                        count = min_image(images)
                        support, tids = count.support, count.min_image
                    else:
                        continue
                    if support >= threshold:
                        pattern = Pattern(canon, key, support, tids)
                        level.append(_Kept(pattern, images, pivots))
                span.set_attrs(
                    candidates=len(measured),
                    kept=len(level),
                    **{name: counter.stats[name] - before[name]
                       for name in before},
                )
            candidates += len(measured)
            for kept in level:
                patterns.add(kept.pattern)
                if size == 1:
                    graph = kept.pattern.graph
                    (_u, _v, label), = graph.edges()
                    ends = zip(graph.vertex_labels(), kept.images)
                    for (lu, at_u), (lv, at_v) in permutations(ends):
                        edges.setdefault(lu, {})[label, lv] = (
                            at_u, at_v, kept.pivots
                        )
            if self.max_size is not None and size >= self.max_size:
                break
            size += 1
        return patterns, candidates


def _extensions(
    level: list[_Kept],
    edges: dict[Label, dict[tuple, tuple]],
    threshold: int,
    least: int,
) -> dict[tuple, tuple]:
    """Canonical key -> ``(canonical graph, pivot seed, root seed)`` of
    the children worth measuring.  A visible embedding restricts to one
    of each sub-pattern, so a child vertex's images lie among its parent
    vertex's and the new edge end's (fewer than ``least`` drops it), its
    supporting pivots among those of every kept one-edge-smaller pattern
    (one not kept, or fewer than ``threshold`` shared, drops it), and its
    centre's images among the parent vertex's it is, if any."""
    kept = {parent.pattern.key: parent for parent in level}
    # key -> [canonical graph, pivot seed, root seed, centre]; None: dropped
    found: dict[tuple, list | None] = {}

    def offer(child: LabeledGraph, parent: _Kept) -> None:
        key, orders = canonical_form(child)
        entry = found.get(key, ())
        if entry == ():
            canon = child.induced_subgraph(orders[0])
            pivots = _pivot_seed(canon, kept)
            entry = found[key] = (
                None if pivots is False
                or (pivots is not None and len(pivots) < threshold)
                else [canon, pivots, None, pattern_centre(canon)[0]]
            )
        if entry is None:
            return
        n, centre = parent.pattern.graph.num_vertices, entry[3]
        for order in orders:
            if order[centre] < n:
                roots = parent.images[order[centre]]
                if entry[2] is None or len(roots) < len(entry[2]):
                    entry[2] = roots

    for parent in level:
        graph, images = parent.pattern.graph, parent.images
        n = graph.num_vertices
        for u in range(n):
            lu = graph.vertex_label(u)
            frequent = edges.get(lu, {}).items()
            for (label, other), (near, far, pivots) in frequent:
                if len(images[u] & near) < least or (
                    pivots is not None
                    and parent.pivots is not None
                    and len(pivots & parent.pivots) < threshold
                ):
                    continue
                child = graph.copy()
                child.add_edge(u, child.add_vertex(other), label)
                offer(child, parent)
                for v in range(u + 1, n):
                    if (
                        graph.vertex_label(v) == other
                        and not graph.has_edge(u, v)
                        and len(images[v] & far) >= least
                    ):
                        child = graph.copy()
                        child.add_edge(u, v, label)
                        offer(child, parent)
    return {key: tuple(entry[:3]) for key, entry in found.items() if entry}


def _pivot_seed(graph: LabeledGraph, kept: dict[tuple, _Kept]):
    """The intersection of the known supporting pivots of the connected
    patterns one edge smaller than ``graph`` (``None`` if none is
    known), or ``False`` when one of them was not kept."""
    edges = [(u, v) for u, v, _label in graph.edges()]
    seed = None
    for i in range(len(edges)):
        sub = graph.edge_subgraph(edges[:i] + edges[i + 1:])
        if not sub.is_connected():
            continue
        found = kept.get(canonical_form(sub)[0])
        if found is None:
            return False
        if found.pivots is not None:
            seed = found.pivots if seed is None else seed & found.pivots
    return seed
