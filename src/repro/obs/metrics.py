"""Metrics registry: thread-safe counters, gauges and histograms.

The registry holds what no other record of the repo keeps: the
support-counting work counters (:mod:`repro.perf.counters`, family
``repro_perf_events_total``), the serving layer's process-lifetime
query and HTTP counts (an engine's own totals restart with every
reload), and the health and storage gauges ``PatternService`` refreshes
at scrape time.  Phase times live in the trace and in
``PartMinerResult``, merge levels in ``MergeJoinStats``, unit attempts in
the ``unit.attempt`` spans and cache probes in ``GraphLRU.stats()``
(DESIGN.md §11); none of them is copied here.

* :class:`Counter` — monotonic ``inc``;
* :class:`Gauge` — ``set`` to the latest value;
* :class:`Histogram` — ``observe`` into fixed cumulative buckets (the
  latency boundaries every Prometheus user expects).

Families are created on first request (``registry().counter(name, ...)``)
and re-requests return the same object, so instrumented modules need no
setup order.  A family declared with ``labels=()`` *is* its single
series; labeled families dispense series via :meth:`MetricFamily.labels`.

Two export shapes:

* :meth:`MetricsRegistry.snapshot` — a JSON-ready dict (bench results
  and the CLI ``--metrics`` file);
* :meth:`MetricsRegistry.render_prometheus` — Prometheus text exposition
  format v0.0.4 (served by ``PatternService`` at ``/metrics``).

The serving layer records through :func:`observe_query` and
:func:`count_http_request`.
"""

from __future__ import annotations

import threading
from typing import Iterable

#: Latency bucket boundaries (seconds) used by every duration histogram.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing value.  Thread-safe."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def sample(self) -> float:
        return self.value


class Gauge:
    """A value that goes up and down (latest observation wins)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def sample(self) -> float:
        return self.value


class Histogram:
    """Fixed-boundary cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("boundaries", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        lock: threading.Lock,
        boundaries: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.boundaries = tuple(sorted(boundaries))
        if not self.boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        self._counts = [0] * (len(self.boundaries) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.boundaries):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def snapshot(self) -> dict:
        """Cumulative bucket counts plus sum/count, JSON-ready."""
        with self._lock:
            cumulative = []
            running = 0
            for count in self._counts[:-1]:
                running += count
                cumulative.append(running)
            total = running + self._counts[-1]
            return {
                "buckets": [
                    {"le": bound, "count": cum}
                    for bound, cum in zip(self.boundaries, cumulative)
                ],
                "sum": self._sum,
                "count": total,
            }

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.boundaries) + 1)
            self._sum = 0.0
            self._count = 0

    def sample(self) -> dict:
        return self.snapshot()


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All series sharing one metric name (one per label-value vector)."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
        **options,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._options = options
        self._lock = lock
        self._series: dict[tuple[str, ...], object] = {}

    def labels(self, **labels) -> Counter | Gauge | Histogram:
        """The series for one label-value vector (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _KINDS[self.kind](self._lock, **self._options)
                self._series[key] = series
            return series

    @property
    def unlabeled(self) -> Counter | Gauge | Histogram:
        """The single series of a ``labels=()`` family."""
        if self.label_names:
            raise ValueError(f"{self.name} is labeled; use .labels()")
        with self._lock:
            series = self._series.get(())
            if series is None:
                series = _KINDS[self.kind](self._lock, **self._options)
                self._series[()] = series
            return series

    def series(self) -> list[tuple[dict, object]]:
        """``(labels_dict, series)`` pairs, label-sorted (stable output)."""
        with self._lock:
            items = sorted(self._series.items())
        return [
            (dict(zip(self.label_names, key)), series)
            for key, series in items
        ]


class MetricsRegistry:
    """The process-wide metric store (see module docs).  Thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    def _family(
        self, name: str, kind: str, help: str,
        labels: tuple[str, ...], **options,
    ) -> MetricFamily:
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                # Names are checked once, when the family is created:
                # the hook helpers re-request live families on every
                # increment, and a registered name is already valid.
                _validate_name(name)
                for label in labels:
                    _validate_name(label)
                family = MetricFamily(
                    name, kind, help, labels, self._lock, **options
                )
                self._families[name] = family
            elif family.kind != kind or family.label_names != labels:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}, "
                    f"requested {kind}{labels}"
                )
            return family

    def counter(self, name: str, help: str = "", labels: tuple = ()):
        """The counter family ``name`` (its series when unlabeled)."""
        family = self._family(name, "counter", help, labels)
        return family if labels else family.unlabeled

    def gauge(self, name: str, help: str = "", labels: tuple = ()):
        """The gauge family ``name`` (its series when unlabeled)."""
        family = self._family(name, "gauge", help, labels)
        return family if labels else family.unlabeled

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        """The histogram family ``name`` (its series when unlabeled)."""
        family = self._family(
            name, "histogram", help, labels, boundaries=tuple(buckets)
        )
        return family if labels else family.unlabeled

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [
                self._families[name] for name in sorted(self._families)
            ]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every series' current value as one JSON-ready dict."""
        out: dict = {}
        for family in self.families():
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "series": [
                    {"labels": labels, "value": series.sample()}
                    for labels, series in family.series()
                ],
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format v0.0.4."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, series in family.series():
                if family.kind == "histogram":
                    snap = series.snapshot()
                    for bucket in snap["buckets"]:
                        lines.append(
                            _sample_line(
                                family.name + "_bucket",
                                {**labels, "le": _format_value(bucket["le"])},
                                bucket["count"],
                            )
                        )
                    lines.append(
                        _sample_line(
                            family.name + "_bucket",
                            {**labels, "le": "+Inf"},
                            snap["count"],
                        )
                    )
                    lines.append(
                        _sample_line(
                            family.name + "_sum", labels, snap["sum"]
                        )
                    )
                    lines.append(
                        _sample_line(
                            family.name + "_count", labels, snap["count"]
                        )
                    )
                else:
                    lines.append(
                        _sample_line(family.name, labels, series.value)
                    )
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every series (benchmark/test isolation)."""
        for family in self.families():
            for _labels, series in family.series():
                series.reset()


# ----------------------------------------------------------------------
# Exposition-format helpers
# ----------------------------------------------------------------------
def _validate_name(name: str) -> None:
    if not name or not (name[0].isalpha() or name[0] in "_:"):
        raise ValueError(f"invalid metric name {name!r}")
    for ch in name[1:]:
        if not (ch.isalnum() or ch in "_:"):
            raise ValueError(f"invalid metric name {name!r}")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value):
        # 1.0 renders as "1": scrapers accept both, humans prefer this.
        return str(int(value))
    return repr(value)


def _sample_line(name: str, labels: dict, value) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(str(val))}"'
            for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


# ----------------------------------------------------------------------
# The global registry + the serving layer's hook helpers
# ----------------------------------------------------------------------
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every hook records into."""
    return REGISTRY


def observe_query(kind: str, elapsed: float, searches: int,
                  lru_hit: bool) -> None:
    """Record one serving-layer query."""
    REGISTRY.histogram(
        "repro_query_latency_seconds",
        "Serving-layer query latency by query kind",
        labels=("kind",),
    ).labels(kind=kind).observe(elapsed)
    REGISTRY.counter(
        "repro_serve_queries_total",
        "Queries answered by the serving engine",
        labels=("kind",),
    ).labels(kind=kind).inc()
    if lru_hit:
        REGISTRY.counter(
            "repro_serve_lru_hits_total",
            "Serving queries answered from the engine LRU cache",
        ).inc()
    if searches:
        REGISTRY.counter(
            "repro_serve_searches_total",
            "Isomorphism searches run by the serving engine",
        ).inc(searches)


def count_http_request(route: str, outcome: str) -> None:
    """Record one PatternService HTTP request."""
    REGISTRY.counter(
        "repro_http_requests_total",
        "PatternService HTTP requests by route and outcome",
        labels=("route", "outcome"),
    ).labels(route=route, outcome=outcome).inc()
