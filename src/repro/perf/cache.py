"""Cross-level pattern support cache: canonical key -> containment memo.

``CheckFrequency`` answers the same question — "does graph ``G`` contain
pattern ``P``?" — over and over: carried patterns are re-verified at every
ancestor of the partition tree, incremental re-merges re-verify against
mostly-unchanged level datasets, and query/match workloads re-test mined
patterns against the database they came from.  A :class:`SupportCache`
memoizes each verdict under ``(canonical key, induced)`` per **graph
instance**, so any later test of an isomorphic pattern against the same
graph is a dict lookup.

Keying by instance (weak reference) + ``version`` stamp is what makes the
memo safe to share across the whole partition tree and across update
batches:

* where level datasets share graph instances (the root level dataset *is*
  the database; untouched graphs survive re-partitioning by identity),
  verdicts transfer verbatim;
* a graph mutated in place by an update batch bumps its ``version`` — its
  stale verdicts are dropped on first access;
* a piece graph replaced during re-partitioning is a new instance — its
  old entries die with the old instance (weak keys), and the new instance
  starts empty.

The cache never stores a wrong verdict as long as callers pass the
pattern's canonical key (two patterns with equal keys are isomorphic, so
their containment verdicts are interchangeable).

Entries additionally carry the process-wide **accel-state token**
(:func:`repro.perf.accel_token`): toggling the acceleration layer or the
flat kernels mid-process bumps it, invalidating every verdict computed
under the previous configuration on first access.  Verdicts are
configuration-independent *by contract*, but the token turns "the
differential suite proves it" into "a flipped toggle can't even serve a
stale one" — the accel-matrix tests flip these switches constantly.

Callers ask in batches: one pattern against a scan's graphs
(:func:`~repro.graph.isomorphism.scan_support`) or one graph against its
candidate patterns (the query engine).  :meth:`SupportCache.probe` and
:meth:`SupportCache.store` take the lock once per batch, intern each
``(key, induced)`` to a small int (entries are keyed by it, so a key
tuple is hashed once per batch, not once per pair) and flush the process
counters once; version and accel token are still checked per entry.
:meth:`get` / :meth:`put` are the one-pair forms.  The cache locks
itself, so threads serving queries may share one.
"""

from __future__ import annotations

import sys
import threading
import weakref
from itertools import repeat
from typing import Sequence

from ..graph.labeled_graph import LabeledGraph
from ._state import accel_token
from .counters import COUNTERS


class SupportCache:
    """Weakly-keyed per-graph containment memo (see module docstring)."""

    def __init__(self) -> None:
        # graph -> {key id: (graph version, accel token, verdict)}
        self._verdicts: "weakref.WeakKeyDictionary[LabeledGraph, dict]"
        self._verdicts = weakref.WeakKeyDictionary()
        self._ids: dict[tuple, int] = {}  # (canonical key, induced) -> id
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0  # stale verdicts dropped (version bumped)
        self._lock = threading.Lock()

    def _pairs(self, keys, graphs, induced: bool, store: bool):
        """``(key id, graph, graph's entry)`` per pair, under the lock.

        ``keys[i]`` pairs with ``graphs[i]``, or a one-element side pairs
        with every element of the other.  A store adds unseen keys and
        graphs; a probe yields id ``None`` for an unseen key (no entry
        holds it) and entry ``None`` for an unseen graph.
        """
        ids = self._ids
        if store:
            kids = [ids.setdefault((key, induced), len(ids)) for key in keys]
        else:
            kids = [ids.get((key, induced)) for key in keys]
        if len(kids) == 1:
            kids = repeat(kids[0], len(graphs))
        elif len(graphs) == 1:
            graphs = repeat(graphs[0], len(kids))
        last = entry = None
        for kid, graph in zip(kids, graphs):
            # A key never stored (id None) is filed under no graph, so a
            # probe for it skips the entry lookup.
            if graph is not last and (store or kid is not None):
                last, entry = graph, self._verdicts.get(graph)
                if entry is None and store:
                    entry = self._verdicts[graph] = {}
            yield kid, graph, entry

    def probe(
        self, keys: Sequence[tuple], graphs: Sequence[LabeledGraph],
        induced: bool = False,
    ) -> list[bool | None]:
        """Each pair's memoized verdict (pairing as in :meth:`_pairs`),
        ``None`` where there is no fresh one."""
        found: list[bool | None] = []
        with self._lock:
            token = accel_token()
            for kid, graph, entry in self._pairs(keys, graphs, induced, False):
                record = None if entry is None else entry.get(kid)
                # The accel-state token: a verdict computed by one matcher
                # stack is never served after a mid-process flip.
                if record is not None and (
                    record[0] != graph.version or record[1] != token
                ):
                    del entry[kid]
                    self.invalidated += 1
                    record = None
                found.append(None if record is None else record[2])
            misses = found.count(None)
            self.hits += len(found) - misses
            self.misses += misses
        if len(found) > misses:
            COUNTERS.inc("support_cache_hits", len(found) - misses)
        if misses:
            COUNTERS.inc("support_cache_misses", misses)
        return found

    def store(
        self, keys: Sequence[tuple], graphs: Sequence[LabeledGraph],
        verdicts: Sequence[bool], induced: bool = False,
    ) -> None:
        """Memoize each pair's verdict at its graph's current version."""
        with self._lock:
            token = accel_token()
            shared: dict[tuple, tuple] = {}  # one tuple per distinct record
            stored = 0
            pairs = zip(self._pairs(keys, graphs, induced, True), verdicts)
            for (kid, graph, entry), verdict in pairs:
                record = (graph.version, token, bool(verdict))
                entry[kid] = shared.setdefault(record, record)
                stored += 1
            self.stores += stored
        if stored:
            COUNTERS.inc("support_cache_stores", stored)

    def get(self, key: tuple, graph: LabeledGraph, induced: bool = False):
        """The memoized verdict for (pattern ``key``, ``graph``), if fresh."""
        return self.probe([key], [graph], induced)[0]

    def put(self, key, graph, verdict: bool, induced: bool = False) -> None:
        """Memoize a containment verdict at the graph's current version."""
        self.store([key], [graph], [verdict], induced)

    # ------------------------------------------------------------------
    def entries(self) -> int:
        """Live memoized verdicts (dead graphs excluded automatically)."""
        with self._lock:
            return sum(len(entry) for entry in self._verdicts.values())

    def approx_bytes(self) -> int:
        """Rough memory footprint: per-entry overhead + interned keys."""
        per_entry = 40  # dict slot; the version records are shared
        entries = self.entries()
        with self._lock:
            return entries * per_entry + sum(
                sys.getsizeof(key) for key, _induced in self._ids
            )

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-ready digest for telemetry and benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
            "entries": self.entries(),
            "approx_bytes": self.approx_bytes(),
            "hit_rate": round(self.hit_rate(), 4),
        }

    def clear(self) -> None:
        with self._lock:
            self._verdicts.clear()
            self._ids.clear()

    def __repr__(self) -> str:
        return (
            f"SupportCache(entries={self.entries()}, hits={self.hits}, "
            f"misses={self.misses})"
        )
