"""Global work counters of the support-counting acceleration layer.

Every fast path in :mod:`repro.perf` increments these process-wide
counters, so benchmarks and the CI perf gate can measure *work avoided*
(isomorphism searches skipped, candidates rejected by the admit
prefilter, support verdicts served from cache) independently of wall-clock noise.

``vf2_calls`` is the headline number: it counts backtracking subgraph
searches **actually entered**, in both the production kernel and the
reference recursive matcher, after their respective prefilters.  Running
the same workload with acceleration off and on and comparing the two
deltas is how ``benchmarks/bench_support_counting.py`` computes the
reduction factor.

Since the serving layer arrived these counters are hit concurrently by
``PatternService``'s worker-thread pool, so the live instance is no
longer a bag of bare ints: :class:`LiveCounters` stores each field as a
locked series in the :mod:`repro.obs.metrics` registry (family
``repro_perf_events_total``, labeled by counter name).  Hot paths call
:meth:`LiveCounters.inc`; attribute reads (``COUNTERS.vf2_calls``) and
the snapshot/delta API return plain ints, and :class:`PerfCounters` is
the value object snapshots are made of.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..obs import metrics as _metrics

#: Registry family backing the live counters.
FAMILY = "repro_perf_events_total"
_HELP = "Support-counting acceleration work counters, by counter name"


@dataclass
class PerfCounters:
    """Monotonic work counters (see module docstring for semantics)."""

    vf2_calls: int = 0  # backtracking searches entered (both matchers)
    quick_rejects: int = 0  # size/label-histogram rejections
    fingerprint_rejects: int = 0  # degree-sequence rejections
    support_cache_hits: int = 0  # containment verdicts served from cache
    support_cache_misses: int = 0  # cache consulted, no (fresh) verdict
    support_cache_stores: int = 0  # verdicts written to a cache
    flat_searches: int = 0  # searches run by the flat-array matcher
    flat_embeddings: int = 0  # embeddings yielded by the enumerating kernel
    flat_plan_compiles: int = 0  # flat pattern plans built
    flat_db_compiles: int = 0  # databases compiled to flat arrays
    flat_db_hits: int = 0  # flat databases served from cache
    flat_graph_recompiles: int = 0  # stale graphs recompiled into a cached db
    join_levels_skipped: int = 0  # merge-join levels skipped by the bound
    join_pairs_pruned: int = 0  # generator pairs skipped by the bound
    join_pairs_untouched: int = 0  # settled pairs an update batch missed
    canonical_codes: int = 0  # min DFS codes computed (shape-table misses)

    def snapshot(self) -> "PerfCounters":
        """An independent copy (freeze a point in time)."""
        return replace(self)

    def delta(self, since: "PerfCounters") -> "PerfCounters":
        """Counter increments accumulated after ``since`` was snapshot."""
        return PerfCounters(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    def to_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_NAMES = tuple(f.name for f in fields(PerfCounters))


class LiveCounters:
    """The mutable global counters, stored as locked registry series.

    Reads like ``COUNTERS.vf2_calls`` return ints; the one write is the
    atomic ``COUNTERS.inc("vf2_calls")``.
    """

    __slots__ = ("_series",)

    def __init__(self) -> None:
        family = _metrics.registry().counter(
            FAMILY, _HELP, labels=("counter",)
        )
        self._series = {
            name: family.labels(counter=name) for name in _FIELD_NAMES
        }

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomically bump one counter (the hot-path API)."""
        self._series[name].inc(amount)

    def __getattr__(self, name: str) -> int:
        series = self._series.get(name)
        if series is None:
            raise AttributeError(name)
        return int(series.value)

    # ------------------------------------------------------------------
    def snapshot(self) -> PerfCounters:
        """Freeze the live values into a plain-int value object."""
        return PerfCounters(
            **{name: int(s.value) for name, s in self._series.items()}
        )

    def delta(self, since: PerfCounters) -> PerfCounters:
        return self.snapshot().delta(since)


#: The process-wide counter instance every fast path increments.
COUNTERS = LiveCounters()


def snapshot() -> PerfCounters:
    """Freeze the current global counter values."""
    return COUNTERS.snapshot()


def delta_since(since: PerfCounters) -> PerfCounters:
    """Global counter increments since a :func:`snapshot`."""
    return COUNTERS.delta(since)
