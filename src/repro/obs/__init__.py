"""Unified observability: tracing spans, metrics, one sealed trace file.

Each fact a run produces has one record (DESIGN.md §11): merge levels
live in ``MergeJoinStats``, unit attempts in ``RunTelemetry``, cache
probes in ``GraphLRU.stats()``.  This package holds the trace (phase
times) and the registry of what nothing else records:

* :mod:`repro.obs.trace` — hierarchical spans over the whole pipeline,
  contextvar-propagated, with an explicit handoff into runtime worker
  processes; the :class:`Tracer` keeps a run's spans and writes them
  once, at the end, as an integrity-sealed JSONL file
  (:meth:`Tracer.save` / :func:`load_spans`);
* :mod:`repro.obs.metrics` — a thread-safe registry of labeled
  counters / gauges / histograms for what nothing else records (the
  support-counting work counters, serving counts and health gauges),
  exportable as a JSON snapshot or Prometheus text
  (``PatternService /metrics``);
* :mod:`repro.obs.summarize` — the ``repro trace summarize`` renderer.

Convenience re-exports cover the common surface::

    from repro import obs
    with obs.span("partminer.partition", parts=8):
        ...
    obs.registry().counter("repro_thing_total").inc()
"""

from .. import _exports

__getattr__, __dir__, __all__ = _exports(__name__, {
    ".metrics": "DEFAULT_LATENCY_BUCKETS MetricsRegistry registry",
    ".summarize": "summarize_file summarize_spans",
    ".trace": """NULL_SPAN Span Tracer activate begin_in_child
                 collect_child_spans current_handoff load_spans span traced
                 tracing""",
})
