"""In-memory spans for the ladder's traced pass.

The harness, not the program, records these: a span goes around each call
the staged driver makes into a layer, and the handful of functions that do
the work *inside* merge-join are wrapped in the bench process only.  Spans
stay in a list and are written when the child ends.

Two kinds of span share one record shape:

* ``span(name)`` — one record per call, for the stage boundaries;
* ``wrap(name, fn)`` — one *aggregate* record per (parent span, name), for
  functions called thousands of times; it carries ``calls`` and the summed
  busy time, so a 200k-call function costs one record, not 200k.

A span's self time is its duration minus the durations of its direct
children, which is what every ``*_s`` per-layer metric reports.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from functools import wraps


class Tracer:
    """Span recorder for one traced pass of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._aggregates: dict[tuple[int | None, str], int] = {}
        #: name -> why no span of that name could be recorded.
        self.missing: dict[str, str] = {}
        #: While true the wrapped functions run unrecorded (reference work
        #: the pass does for comparison, not part of the workload).
        self.paused = False

    def _open(self, name: str, start: float, calls: int) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": start,
            "end": start,
            "dur_s": 0.0,
            "calls": calls,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str):
        """Record one call into a layer."""
        record = self._open(name, time.perf_counter(), 1)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            record["dur_s"] = record["end"] - record["start"]

    def wrap(self, name: str, fn):
        """``fn`` timed into one aggregate span per calling span."""
        spans, stack, aggregates = self.spans, self._stack, self._aggregates
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if self.paused or (
                parent is not None and spans[parent]["name"] == name
            ):
                return fn(*args, **kwargs)  # reference work, or recursion
            start = clock()
            sid = aggregates.get((parent, name))
            if sid is None:
                sid = self._open(name, start, 0)["id"]
                aggregates[(parent, name)] = sid
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                record = spans[sid]
                record["calls"] += 1
                record["dur_s"] += end - start
                record["end"] = end

        return traced

    def wrap_function(self, span_name: str, module: str, attr: str) -> None:
        """Wrap ``module.attr`` wherever ``repro`` modules imported it.

        ``from x import f`` copies the binding, so the wrapper replaces
        every ``repro.*`` module attribute that *is* the original object.
        A missing module or attribute is noted, not raised: that layer's
        metrics then read ``null``.
        """
        try:
            __import__(module)
            original = getattr(sys.modules[module], attr)
        except (ImportError, AttributeError) as exc:
            self.missing[span_name] = f"{module}.{attr}: {exc}"
            return
        traced = self.wrap(span_name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def wrap_method(self, span_name: str, module: str, cls: str, attr: str) -> None:
        """Wrap ``module.cls.attr`` in place (same degradation rule)."""
        try:
            __import__(module)
            owner = getattr(sys.modules[module], cls)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.missing[span_name] = f"{module}.{cls}.{attr}: {exc}"
            return
        setattr(owner, attr, self.wrap(span_name, original))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span["id"]: span["dur_s"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["dur_s"]
    return own


def layer_self(spans: list[dict]) -> dict[str, float]:
    """Span name -> summed self time over every span of that name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def layer_calls(spans: list[dict]) -> dict[str, int]:
    """Span name -> number of calls recorded under that name."""
    totals: dict[str, int] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0) + span["calls"]
    return totals


def inclusive(spans: list[dict], name: str) -> float:
    """Summed duration (children included) of every span named ``name``."""
    return sum(span["dur_s"] for span in spans if span["name"] == name)
