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

The cache locks itself, so threads serving queries may share one.
"""

from __future__ import annotations

import sys
import threading
import weakref

from ..graph.labeled_graph import LabeledGraph
from ._state import accel_token
from .counters import COUNTERS

#: (canonical key, induced flag) -> (graph version, accel token, verdict)
_Entry = dict


class SupportCache:
    """Weakly-keyed per-graph containment memo (see module docstring)."""

    def __init__(self) -> None:
        self._verdicts: "weakref.WeakKeyDictionary[LabeledGraph, _Entry]"
        self._verdicts = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0  # stale verdicts dropped (version bumped)
        # Distinct pattern keys seen, for the (rough) byte estimate; the
        # key tuples are shared between entries, so count each once.
        self._key_bytes: dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def get(
        self,
        key: tuple,
        graph: LabeledGraph,
        induced: bool = False,
    ) -> bool | None:
        """The memoized verdict for (pattern ``key``, ``graph``), if fresh."""
        with self._lock:
            entry = self._verdicts.get(graph)
            if entry is not None:
                record = entry.get((key, induced))
                if record is not None:
                    version, token, verdict = record
                    # The accel-state token guards against configuration
                    # flips mid-process: a verdict computed by one matcher
                    # stack is never served after the stack changed (the
                    # differential suite relies on toggles being clean).
                    if version == graph.version and token == accel_token():
                        self.hits += 1
                        COUNTERS.inc("support_cache_hits")
                        return verdict
                    del entry[(key, induced)]
                    self.invalidated += 1
            self.misses += 1
        COUNTERS.inc("support_cache_misses")
        return None

    def put(
        self,
        key: tuple,
        graph: LabeledGraph,
        verdict: bool,
        induced: bool = False,
    ) -> None:
        """Memoize a containment verdict at the graph's current version."""
        with self._lock:
            entry = self._verdicts.get(graph)
            if entry is None:
                entry = {}
                self._verdicts[graph] = entry
            entry[(key, induced)] = (graph.version, accel_token(), verdict)
            self.stores += 1
            key_id = id(key)
            if key_id not in self._key_bytes:
                self._key_bytes[key_id] = sys.getsizeof(key)
        COUNTERS.inc("support_cache_stores")

    # ------------------------------------------------------------------
    def entries(self) -> int:
        """Live memoized verdicts (dead graphs excluded automatically)."""
        with self._lock:
            return sum(len(entry) for entry in self._verdicts.values())

    def approx_bytes(self) -> int:
        """Rough memory footprint: per-entry overhead + shared key tuples."""
        per_entry = 96  # dict slot + (version, verdict) tuple, roughly
        entries = self.entries()
        with self._lock:
            return entries * per_entry + sum(self._key_bytes.values())

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
            self._key_bytes.clear()

    def __repr__(self) -> str:
        return (
            f"SupportCache(entries={self.entries()}, hits={self.hits}, "
            f"misses={self.misses})"
        )
