"""Hierarchical tracing spans for the mining pipeline.

A *trace* is one mining run; a *span* is one timed unit of work inside it
(a partition pass, one unit attempt, one merge-join level).  Spans carry
a ``trace_id`` shared by the whole run, their own ``span_id``, their
parent's id, a name from the span taxonomy (DESIGN.md §11), free-form
``attrs``, a status (``ok`` / ``error``), a wall-clock start time and a
monotonic duration.

Usage is a context manager (or decorator) that needs no plumbing::

    with trace.span("partminer.partition", parts=8):
        parts = db_partition(db, 8)

The *current* span travels in a :mod:`contextvars` ContextVar, so nested
``span()`` calls parent themselves automatically.  Two places need
explicit help:

* **threads** — ContextVars do not follow ``threading.Thread``; the
  supervisor captures the parent span before fanning out and each slot
  thread re-enters it with :func:`under`;
* **worker processes** — the supervisor puts :func:`current_handoff`
  (trace id + parent span id) into the attempt payload, the child calls
  :func:`begin_in_child` / :func:`collect_child_spans`, and the parent
  merges the result with :meth:`Tracer.adopt`.  Child spans survive only
  if the worker replies; a crashed worker loses its spans but never
  corrupts the tree (the parent's ``unit.attempt`` span still records
  the outcome).

Spans are recorded into the process-global active :class:`Tracer`
(installed with :func:`activate`); when no tracer is active ``span()``
hands back a shared no-op span, so untraced runs pay one branch per hook.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from ..resilience import integrity
from ..resilience.errors import ArtifactCorrupt

TRACE_EVENT = "span"  #: the ``event`` field of a span JSONL record


def _new_id() -> str:
    return os.urandom(8).hex()


class Span:
    """One timed node of the trace tree (see module docs)."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "attrs", "status",
        "start_time", "duration", "_t0",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attrs = dict(attrs or {})
        self.status = "ok"
        self.start_time = time.time()
        self.duration: float | None = None
        self._t0 = time.perf_counter()

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def set_status(self, status: str, detail: str | None = None) -> None:
        self.status = status
        if detail is not None:
            self.attrs["status_detail"] = detail

    def end(self) -> None:
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0

    def to_dict(self) -> dict:
        return {
            "event": TRACE_EVENT,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "status": self.status,
            "start_time": self.start_time,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls.__new__(cls)
        span.trace_id = data["trace_id"]
        span.span_id = data["span_id"]
        span.parent_id = data.get("parent_id")
        span.name = data["name"]
        span.attrs = dict(data.get("attrs") or {})
        span.status = data.get("status", "ok")
        span.start_time = data.get("start_time", 0.0)
        span.duration = data.get("duration")
        span._t0 = 0.0
        return span


class _NullSpan:
    """The shared do-nothing span handed out when tracing is off."""

    __slots__ = ()
    trace_id = span_id = parent_id = None
    name = ""
    status = "ok"
    attrs: dict = {}

    def set_attr(self, key: str, value) -> None:
        pass

    def set_attrs(self, **attrs) -> None:
        pass

    def set_status(self, status: str, detail: str | None = None) -> None:
        pass

    def end(self) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects the finished spans of one trace.  Thread-safe.

    The span list *is* the trace: :meth:`save` writes it once, at the
    end of the run, as a sealed artifact (:func:`load_spans` reads it).
    """

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or _new_id()
        self._spans: list[dict] = []
        self._lock = threading.Lock()

    def record(self, span: Span) -> None:
        span.end()
        data = span.to_dict()
        with self._lock:
            self._spans.append(data)

    def adopt(self, spans: Iterable[dict]) -> None:
        """Merge span dicts collected in a worker process into this trace."""
        adopted = [dict(s) for s in spans]
        for data in adopted:
            data["trace_id"] = self.trace_id
        with self._lock:
            self._spans.extend(adopted)

    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def save(self, path: str | Path) -> Path:
        """Write the spans to ``path`` as JSON lines (creating its parent)
        through ``integrity.write_checked`` like every other artifact:
        atomic, fsynced and sealed, so a trace on disk is whole or absent."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        dump = functools.partial(json.dumps, sort_keys=True, default=str)
        text = "\n".join(map(dump, self.spans()))
        return integrity.write_checked(path, text)


def load_spans(path: str | Path) -> list[dict]:
    """The span records of a trace written by :meth:`Tracer.save`.

    The footer is required: a truncated or damaged trace raises
    :class:`~repro.resilience.errors.ArtifactCorrupt` and is quarantined.
    Records that are not spans are skipped.
    """
    text = integrity.read_checked(path, require=True)
    spans = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise ArtifactCorrupt(
                f"{path}: unparseable record at line {number}", path=path
            ) from None
        if isinstance(record, dict) and record.get("event") == TRACE_EVENT:
            spans.append(record)
    return spans


# ----------------------------------------------------------------------
# Process-global tracer + contextvar parent propagation
# ----------------------------------------------------------------------
_ACTIVE: Tracer | None = None
_CURRENT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)
_OPEN: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_open_span", default=None
)


def active() -> Tracer | None:
    """The tracer currently collecting spans, if any."""
    return _ACTIVE


def activate(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer):
    """Run a block with ``tracer`` active, restoring the previous on exit."""
    previous = activate(tracer)
    try:
        yield tracer
    finally:
        activate(previous)


def current_span_id() -> str | None:
    """The span id new spans would parent to (for thread/process handoff)."""
    return _CURRENT.get()


@contextmanager
def span(name: str, **attrs):
    """Open a child span of the current parent.

    No-op — yields the shared :data:`NULL_SPAN` — when no tracer is
    active.  Across a thread boundary the contextvar parent is lost;
    re-enter the captured one with :func:`under`.
    """
    tracer = _ACTIVE
    if tracer is None:
        yield NULL_SPAN
        return
    node = Span(name, tracer.trace_id, _CURRENT.get(), attrs)
    token = _CURRENT.set(node.span_id)
    open_token = _OPEN.set(node)
    try:
        yield node
    except BaseException as exc:
        node.set_status("error", f"{type(exc).__name__}: {exc}")
        raise
    finally:
        _OPEN.reset(open_token)
        _CURRENT.reset(token)
        tracer.record(node)


@contextmanager
def under(parent: "Span | str | None"):
    """Make ``parent`` (a span or span id) the current parent for a block.

    ContextVars do not follow work handed to another thread; the
    receiving thread re-enters the captured span with this, and spans it
    opens inside parent as if the hand-off had not happened.
    """
    token = _CURRENT.set(getattr(parent, "span_id", parent))
    try:
        yield
    finally:
        _CURRENT.reset(token)


def annotate(**attrs) -> None:
    """Set attributes on the innermost open :func:`span`, if any.

    For code that runs *inside* a span someone else opened (a unit
    worker under the runtime's ``unit.worker`` span).
    """
    node = _OPEN.get()
    if node is not None:
        node.set_attrs(**attrs)


def begin(name: str, **attrs) -> "Span | _NullSpan":
    """Manually open a span parented to the current context.

    For straight-line phase blocks where a ``with`` would force deep
    reindentation.  The caller must pass the span to :func:`finish`;
    unlike :func:`span` it does **not** become the contextvar parent of
    spans opened while it is running.
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return Span(name, tracer.trace_id, _CURRENT.get(), attrs)


def finish(node, status: str = "ok") -> None:
    """Close and record a span from :func:`begin`."""
    if node is NULL_SPAN:
        return
    if status != "ok":
        node.set_status(status)
    tracer = _ACTIVE
    if tracer is not None:
        tracer.record(node)


def traced(name: str | None = None, **attrs):
    """Decorator form of :func:`span` (span name defaults to the function's)."""

    def decorate(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Worker-process span handoff
# ----------------------------------------------------------------------
def current_handoff() -> dict | None:
    """The ``{"trace_id", "parent_id"}`` payload stub for a worker process.

    Returns None when tracing is inactive so untraced payloads stay
    byte-identical to the pre-obs protocol.
    """
    tracer = _ACTIVE
    if tracer is None:
        return None
    return {"trace_id": tracer.trace_id, "parent_id": _CURRENT.get()}


def begin_in_child(handoff: dict) -> Tracer:
    """Install a collecting tracer inside a worker process.

    The child's spans join the parent trace: same trace id, parented
    (via the contextvar) to the attempt span the engine captured in
    ``handoff``.
    """
    tracer = Tracer(trace_id=handoff.get("trace_id"))
    activate(tracer)
    _CURRENT.set(handoff.get("parent_id"))
    return tracer


def collect_child_spans() -> list[dict]:
    """Drain the child tracer's spans for the reply message (or [])."""
    tracer = _ACTIVE
    if tracer is None:
        return []
    spans = tracer.spans()
    activate(None)
    _CURRENT.set(None)  # undo begin_in_child's parent pin
    return spans
