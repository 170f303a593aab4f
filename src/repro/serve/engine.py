"""The query engine: indexed, cached, semantics-preserving answers.

A :class:`QueryEngine` binds one immutable
:class:`~repro.serve.catalog.CatalogSnapshot` to one
:class:`~repro.graph.database.GraphDatabase` and answers the serving
layer's four query shapes:

* :meth:`match` — which database graphs contain a given pattern;
* :meth:`contains` — which catalog patterns occur in a given graph;
* :meth:`top_k` — the leading patterns by support/size (pure metadata);
* :meth:`coverage` — how much of the database the catalog explains.

Every answer is **identical to the unindexed** :mod:`repro.query` path —
the fragment index only removes (pattern, graph) pairs whose fragments
already prove non-containment, and every surviving candidate is verified
by a real subgraph-isomorphism search.  The differential test-suite pins
this for both monomorphism and induced semantics.

Three layers of work avoidance, outermost first:

1. an LRU result cache.  ``match`` keys on the pattern's canonical code
   and a database epoch — a small int per database state (a graph added,
   replaced or mutated is a new state); ``contains`` keys on the graph's
   content digest (:func:`~repro.serve.index.graph_digest`): exact
   repeats hit, HTTP re-encodes too, a renumbered copy is recomputed;
2. the snapshot's :class:`~repro.serve.index.FragmentIndex` (graphs whose
   content digest drifted since the index was built are always
   candidates — ``stale_gids``, resolved once per epoch like the
   database's :class:`~repro.perf.FlatDB`);
3. a :class:`repro.perf.SupportCache` of per-graph containment verdicts
   under the pattern's canonical key, probed and filled once per query.
   Over a store-backed database it is bypassed for database graphs: the
   store re-decodes evicted graphs, so an instance-keyed entry would not
   be found again and each probe would cost a row decode.

``REPRO_NO_ACCEL`` (:func:`repro.perf.enabled`) bypasses layers 2–3 and
scans linearly with the reference matcher — the differential baseline.
The engine is thread-safe: snapshots are immutable, the support cache
locks itself, and the LRU, epoch and stats sit behind the engine's lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from operator import attrgetter

from .. import perf
from ..obs import metrics as obs_metrics
from ..graph.canonical import canonical_code
from ..graph.database import GraphDatabase
from ..graph.isomorphism import scan_support, subgraph_exists
from ..graph.labeled_graph import LabeledGraph
from ..mining.base import Pattern, PatternSet
from ..resilience.health import Deadline
from .catalog import CatalogSnapshot, PatternEntry
from .index import graph_digest, graph_fragments

_VERSION = attrgetter("version")

#: What :meth:`QueryEngine.top_k` can rank by.
TOP_K_BY = ("support", "size")


@dataclass
class QueryStats:
    """Work and latency of one query."""

    kind: str
    universe: int = 0  # pairs/entities before any filtering
    candidates: int = 0  # survivors of the fragment index
    searches: int = 0  # isomorphism searches actually run
    support_cache_hits: int = 0
    lru_hit: bool = False
    elapsed: float = 0.0

    @property
    def pruned(self) -> int:
        return self.universe - self.candidates


@dataclass(frozen=True)
class MatchAnswer:
    """Answer to ``match``: the supporting gids of one pattern."""

    gids: frozenset[int]
    stats: QueryStats

    @property
    def support(self) -> int:
        return len(self.gids)


@dataclass(frozen=True)
class ContainsAnswer:
    """Answer to ``contains``: the catalog patterns found in one graph."""

    pids: tuple[int, ...]
    stats: QueryStats


@dataclass
class EngineTotals:
    """Aggregate counters across the engine's lifetime."""

    queries: int = 0
    lru_hits: int = 0
    searches: int = 0
    candidates: int = 0
    universe: int = 0
    support_cache_hits: int = 0
    elapsed: float = 0.0
    by_kind: dict = field(default_factory=dict)

    def record(self, stats: QueryStats) -> None:
        self.queries += 1
        self.lru_hits += 1 if stats.lru_hit else 0
        self.searches += stats.searches
        self.candidates += stats.candidates
        self.universe += stats.universe
        self.support_cache_hits += stats.support_cache_hits
        self.elapsed += stats.elapsed
        self.by_kind[stats.kind] = self.by_kind.get(stats.kind, 0) + 1

    def to_dict(self) -> dict:
        digest = asdict(self)
        digest["pruned"] = self.universe - self.candidates
        digest["elapsed"] = round(self.elapsed, 6)
        return digest


class QueryEngine:
    """Indexed queries over one catalog snapshot and one database."""

    def __init__(
        self,
        snapshot: CatalogSnapshot,
        database: GraphDatabase,
        lru_size: int = 1024,
    ) -> None:
        self.snapshot = snapshot
        self.database = database
        self.support_cache = perf.SupportCache()
        self.totals = EngineTotals()
        self._lru: OrderedDict = OrderedDict()
        self._lru_size = lru_size
        self._lock = threading.Lock()
        # The support cache for database graphs: held in memory only.
        self._db_cache = (
            self.support_cache if database.state_token() is None else None
        )
        # The last database state seen, its epoch, and what _resolved
        # resolved against it.
        self._state: tuple | None = None
        self._epoch = 0
        self._memo: tuple = (None, set(), None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _db_epoch(self) -> int:
        """A small int that changes whenever any database graph changes.

        Store-backed databases provide a persisted token (one counter
        read — decoding every graph just to stamp a cache key would
        defeat out-of-core serving).  In-memory databases pair their
        generation, which every add or replace bumps, with the graphs'
        version counters, which every in-place mutation bumps.  Each new
        state takes the next epoch under the engine's lock, so no two
        states share one and cache keys carry an int, not a |D|-tuple.
        """
        state = self.database.state_token()
        if state is None:
            state = (
                self.database.generation,
                tuple(map(_VERSION, self.database.graphs())),
            )
        with self._lock:
            if state != self._state:
                self._state = state
                self._epoch += 1
            return self._epoch

    def _resolved(self, epoch: int) -> tuple[set[int], "perf.FlatDB"]:
        """The index's stale gids and the database's validated FlatDB,
        resolved once per database epoch."""
        memo = self._memo
        if memo[0] != epoch:
            memo = (
                epoch,
                self.snapshot.index.stale_gids(self.database),
                perf.get_flat_db(self.database),
            )
            self._memo = memo
        return memo[1], memo[2]

    def _lru_get(self, key: tuple):
        with self._lock:
            value = self._lru.get(key)
            if value is not None:
                self._lru.move_to_end(key)
            return value

    def _lru_put(self, key: tuple, value) -> None:
        with self._lock:
            self._lru[key] = value
            self._lru.move_to_end(key)
            while len(self._lru) > self._lru_size:
                self._lru.popitem(last=False)

    # ------------------------------------------------------------------
    # match: pattern -> supporting database graphs
    # ------------------------------------------------------------------
    def match(
        self,
        pattern: LabeledGraph,
        induced: bool = False,
        deadline: Deadline | None = None,
    ) -> MatchAnswer:
        """The database gids containing ``pattern``.

        Identical to the supporting-gid set of :func:`repro.query.match`
        (existence only; occurrences are not enumerated).  ``deadline``
        (propagated from the service's request edge) is checked between
        per-graph searches; expiry raises a typed
        :class:`~repro.resilience.errors.DeadlineExceeded` instead of
        letting one pathological query hold a worker indefinitely.
        """
        start = time.perf_counter()
        stats = QueryStats(kind="match", universe=len(self.database))
        accel = perf.enabled()
        try:
            key = canonical_code(pattern)
        except ValueError:  # empty or disconnected: no key, no caching
            key = None
        epoch = self._db_epoch()
        lru_key = None
        if key is not None:
            lru_key = ("match", key, induced, epoch)
            cached = self._lru_get(lru_key)
            if cached is not None:
                stats.lru_hit = True
                self._record_query(stats, start)
                return MatchAnswer(gids=cached, stats=stats)

        candidates = live_gids = set(self.database.gids())
        flat = None
        if accel:
            stale, flat = self._resolved(epoch)
            index = self.snapshot.index
            from_index = index.candidate_graphs(graph_fragments(pattern))
            if from_index is not None:
                # Drifted graphs have unreliable posting lists: always
                # re-candidates.  Deleted gids drop out via the live set.
                candidates = (from_index & live_gids) | stale
        stats.candidates = len(candidates)

        supporting: set[int] = set()
        order = sorted(candidates)
        if order:
            # One kernel call over the whole candidate list (the support
            # cache resolves what it can first); a deadline-bearing query
            # scans one gid per call so expiry is checked between searches.
            cache = self._db_cache if key is not None else None
            for gids in [order] if deadline is None else [[g] for g in order]:
                if deadline is not None:
                    deadline.check("match query")
                scan, cache_hits = scan_support(
                    pattern, self.database, gids, flat, supporting,
                    induced=induced, cache=cache, key=key,
                    arena=perf.local_arena(),
                )
                stats.support_cache_hits += cache_hits
                stats.searches += len(gids) if scan is None else scan.searched
        answer = frozenset(supporting)
        if lru_key is not None:
            self._lru_put(lru_key, answer)
        self._record_query(stats, start)
        return MatchAnswer(gids=answer, stats=stats)

    def relocate(
        self,
        patterns: PatternSet | None = None,
        induced: bool = False,
        min_support: float | int | None = None,
    ) -> PatternSet:
        """Re-measure a pattern set against this engine's database.

        With ``patterns=None`` the catalog's own patterns are relocated.
        Result-identical to :func:`repro.query.match_patterns` — supports
        and TID lists are measured against the live database, patterns
        below ``min_support`` (when given) are dropped.
        """
        source = self.snapshot.patterns if patterns is None else patterns
        threshold = (
            0 if min_support is None
            else self.database.absolute_support(min_support)
        )
        relocated = PatternSet()
        for pattern in source:
            answer = self.match(pattern.graph, induced=induced)
            if answer.support >= threshold:
                relocated.add(Pattern(
                    pattern.graph, pattern.key, answer.support, answer.gids
                ))
        return relocated

    # ------------------------------------------------------------------
    # contains: graph -> catalog patterns present in it
    # ------------------------------------------------------------------
    def contains(
        self,
        graph: LabeledGraph,
        induced: bool = False,
        deadline: Deadline | None = None,
    ) -> ContainsAnswer:
        """The catalog pids whose pattern embeds in ``graph``."""
        start = time.perf_counter()
        stats = QueryStats(
            kind="contains", universe=len(self.snapshot.entries)
        )
        lru_key = (
            "contains", graph_digest(graph), induced, self.snapshot.version
        )
        cached = self._lru_get(lru_key)
        if cached is not None:
            stats.lru_hit = True
            self._record_query(stats, start)
            return ContainsAnswer(pids=cached, stats=stats)

        pids = self._graph_hits(
            graph, induced, stats, self.support_cache, deadline=deadline
        )
        answer = tuple(pids)
        self._lru_put(lru_key, answer)
        self._record_query(stats, start)
        return ContainsAnswer(pids=answer, stats=stats)

    def _record_query(self, stats: QueryStats, start: float) -> None:
        """Fold one query begun at ``start`` into totals and obs registry."""
        stats.elapsed = time.perf_counter() - start
        with self._lock:
            self.totals.record(stats)
        obs_metrics.observe_query(
            stats.kind, stats.elapsed, stats.searches, stats.lru_hit
        )

    def _graph_hits(
        self,
        graph: LabeledGraph,
        induced: bool,
        stats: QueryStats,
        cache: "perf.SupportCache | None",
        first_only: bool = False,
        deadline: Deadline | None = None,
    ) -> list[int]:
        """Pids embedding in ``graph``, at most one when ``first_only``;
        one ``cache`` probe and one store cover every candidate."""
        accel = perf.enabled()
        entries = self.snapshot.entries
        if accel:
            candidates = self.snapshot.index.candidate_patterns(
                graph_fragments(graph)
            )
        else:
            candidates = list(range(len(entries)))
        stats.candidates += len(candidates)
        cache = cache if accel else None
        keys = [entries[pid].key for pid in candidates]
        known = (
            [None] * len(keys) if cache is None
            else cache.probe(keys, [graph], induced=induced)
        )
        hits, searched = [], {}
        for pid, key, verdict in zip(candidates, keys, known):
            if deadline is not None:
                deadline.check("contains query")
            if verdict is None:
                stats.searches += 1
                verdict = searched[key] = subgraph_exists(
                    entries[pid].graph, graph, induced=induced
                )
            else:
                stats.support_cache_hits += 1
            if verdict:
                hits.append(pid)
                if first_only:
                    break
        if cache is not None and searched:
            cache.store(
                list(searched), [graph], list(searched.values()), induced
            )
        return hits

    # ------------------------------------------------------------------
    # Metadata queries
    # ------------------------------------------------------------------
    def top_k(self, k: int, by: str = "support") -> list[PatternEntry]:
        """The ``k`` leading catalog entries by ``support`` or ``size``.

        Pure metadata — no search.  Ties break on catalog pid, which is
        itself deterministic (size, support desc, canonical key).
        Raises :class:`ValueError` for a negative ``k`` or another ``by``.
        """
        if k < 0:
            raise ValueError(f"top_k k must be a whole number >= 0: {k!r}")
        if by not in TOP_K_BY:
            raise ValueError(f"top_k by must be 'support' or 'size': {by!r}")
        entries = sorted(
            self.snapshot.entries,
            key=lambda e: (-(e.support if by == "support" else e.size), e.pid),
        )
        return entries[:k]

    def coverage(self, induced: bool = False) -> tuple[float, set[int]]:
        """Fraction (and set) of graphs containing >= 1 catalog pattern.

        Identical to :func:`repro.query.coverage` over the catalog's
        pattern set.
        """
        start = time.perf_counter()
        stats = QueryStats(kind="coverage", universe=len(self.database))
        lru_key = (
            "coverage", induced, self.snapshot.version, self._db_epoch(),
        )
        cached = self._lru_get(lru_key)
        if cached is None:
            covered = set()
            for gid, graph in self.database:
                if self._graph_hits(
                    graph, induced, stats, self._db_cache, first_only=True
                ):
                    covered.add(gid)
            cached = frozenset(covered)
            self._lru_put(lru_key, cached)
        else:
            stats.lru_hit = True
        self._record_query(stats, start)
        covered = set(cached)
        if not len(self.database):
            return 0.0, covered
        return len(covered) / len(self.database), covered

    # ------------------------------------------------------------------
    def stats_dict(self) -> dict:
        """JSON-ready digest for /stats, telemetry and benchmarks."""
        with self._lock:
            digest = self.totals.to_dict()
            digest["lru_entries"] = len(self._lru)
            digest["support_cache"] = self.support_cache.stats()
            digest["snapshot_version"] = self.snapshot.version
            digest["patterns"] = len(self.snapshot.entries)
            digest["graphs"] = len(self.database)
            digest["accel"] = perf.enabled()
        return digest

    def __repr__(self) -> str:
        return (
            f"QueryEngine(snapshot=v{self.snapshot.version}, "
            f"patterns={len(self.snapshot.entries)}, "
            f"graphs={len(self.database)})"
        )
