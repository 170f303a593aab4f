"""BigGraphMiner: single-large-graph mining over the existing pipeline.

The façade strings the subsystem together::

    LabeledGraph
      │  NeighborhoodExtractor (radius r, optional pivot labels)
      ▼
    GraphDatabase of neighborhoods          gid == pivot vertex id
      │  PartMiner (k-way partition, merge-join; optionally sharded
      │  through the coordinator with edge-balanced placement)
      ▼
    transactional candidate superset        support == #neighborhoods
      │  MNISupport.verify (support-mode 'mni')
      ▼
    PatternSet under MNI semantics          tids == argmin image set

Everything downstream of the candidate set — canonical dumps, the
pattern store, serving, query — consumes the resulting
:class:`~repro.mining.base.PatternSet` unchanged, because MNI patterns
keep the store invariant ``support == len(tids)`` (the TID list is the
minimum image set instead of a graph-id list).

Support thresholds are **absolute counts**: a fraction of "the database
size" is meaningless on a single graph, so ``mine`` rejects fractional
thresholds instead of guessing a denominator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .. import obs
from ..core.partminer import PartMiner, PartMinerResult
from ..graph.database import GraphDatabase
from ..graph.labeled_graph import Label, LabeledGraph
from ..mining.base import PatternSet
from .extract import ExtractionStats, NeighborhoodExtractor
from .mni import MNISupport

SUPPORT_MODES = ("mni", "neighborhood")


@dataclass
class BigGraphResult:
    """Output of one big-graph mining run."""

    #: Final pattern set under the chosen support semantics.
    patterns: PatternSet
    #: The transactional candidate superset (pre-verification).
    candidates: PatternSet
    threshold: int
    radius: int
    support_mode: str
    extraction: ExtractionStats
    part_result: PartMinerResult
    extract_time: float = 0.0
    mine_time: float = 0.0
    verify_time: float = 0.0
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
            "pivots": self.extraction.pivots,
            "lower_bound_patterns": self.lower_bound_patterns,
        }
        if self.pivot_labels is not None:
            meta["pivot_labels"] = sorted(self.pivot_labels, key=repr)
        return meta


@dataclass
class BigGraphMiner:
    """Frequent neighborhood-pattern miner for one large graph.

    Parameters
    ----------
    radius:
        Neighborhood radius ``r`` of the decomposition.  MNI counts are
        exact for patterns of radius ≤ r and lower bounds beyond
        (DESIGN.md §16).
    support_mode:
        ``'mni'`` (default) re-verifies candidates under minimum-image
        support; ``'neighborhood'`` keeps the transactional semantics —
        support = number of pivots whose neighborhood contains the
        pattern, TIDs = those pivots.
    pivot_labels:
        Restrict pivots to these vertex labels (pivot-anchored
        semantics); ``None`` pivots on every vertex.
    k / max_size / parallel_units / runtime / run_dir:
        Forwarded to :class:`~repro.core.partminer.PartMiner`.
        ``max_size`` also bounds the MNI verification work.
    shards / coord:
        ``shards >= 2`` routes the candidate mining through the sharded
        coordinator with **edge-balanced** shard placement — pivot
        neighborhoods all have density ≈ 1, so the default density
        ranking degenerates while hub pivots skew sizes by orders of
        magnitude (see :meth:`repro.coord.ShardPlan.build`).  ``coord``
        overrides the whole coordinator policy.
    backend:
        Optional :class:`~repro.storage.backend.StorageBackend` the
        neighborhood database spills into (out-of-core decomposition);
        in-memory when ``None``.
    """

    radius: int = 1
    support_mode: str = "mni"
    pivot_labels: frozenset[Label] | None = None
    k: int = 2
    max_size: int | None = None
    parallel_units: bool = False
    runtime: object | None = None
    run_dir: object | None = None
    shards: int = 0
    coord: object | None = None
    backend: object | None = None

    def __post_init__(self) -> None:
        if self.support_mode not in SUPPORT_MODES:
            raise ValueError(
                f"unknown support_mode {self.support_mode!r} (expected "
                f"one of {', '.join(SUPPORT_MODES)})"
            )

    # ------------------------------------------------------------------
    def extractor(self) -> NeighborhoodExtractor:
        return NeighborhoodExtractor(
            radius=self.radius,
            pivot_labels=(
                frozenset(self.pivot_labels)
                if self.pivot_labels is not None
                else None
            ),
        )

    def _coord_config(self):
        if self.coord is not None:
            return self.coord
        if self.shards < 2:
            return None
        from ..coord import CoordConfig

        extra = {} if self.runtime is None else {"runtime": self.runtime}
        return CoordConfig(
            shards=self.shards, balance="edges", **extra
        )

    # ------------------------------------------------------------------
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
        extractor = self.extractor()
        t0 = time.perf_counter()
        with obs.span("biggraph.extract", radius=self.radius) as span:
            if self.backend is not None:
                neighborhoods = extractor.extract_into(graph, self.backend)
            else:
                neighborhoods = extractor.extract(graph)
            span.set_attrs(pivots=len(neighborhoods))
        extract_time = time.perf_counter() - t0
        stats = extractor.stats(neighborhoods)

        part = PartMiner(
            k=self.k,
            max_size=self.max_size,
            parallel_units=self.parallel_units,
            runtime=self.runtime,
            run_dir=self.run_dir,
            shards=self.shards,
            coord=self._coord_config(),
        )
        t0 = time.perf_counter()
        with obs.span("biggraph.mine", k=self.k) as span:
            part_result = part.mine(neighborhoods, threshold)
            candidates = part_result.patterns
            span.set_attrs(candidates=len(candidates))
        mine_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        lower_bound = 0
        if self.support_mode == "mni":
            with obs.span("biggraph.mni_verify") as span:
                counter = MNISupport(graph, neighborhoods, self.radius)
                patterns = counter.verify(candidates, threshold)
                span.set_attrs(**counter.stats)
            lower_bound = counter.stats["lower_bound_patterns"]
        else:
            patterns = candidates
        verify_time = time.perf_counter() - t0

        return BigGraphResult(
            patterns=patterns,
            candidates=candidates,
            threshold=threshold,
            radius=self.radius,
            support_mode=self.support_mode,
            extraction=stats,
            part_result=part_result,
            extract_time=extract_time,
            mine_time=mine_time,
            verify_time=verify_time,
            lower_bound_patterns=lower_bound,
            pivot_labels=extractor.pivot_labels,
        )
