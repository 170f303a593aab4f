"""Threaded JSON query service over a pattern catalog.

:class:`PatternService` exposes a :class:`~repro.serve.engine.QueryEngine`
through a small stdlib-only HTTP API:

====================  ======  ==========================================
``/healthz``          GET     liveness + served snapshot version
``/stats``            GET     service + engine work counters
``/patterns``         GET     catalog listing (``?top=K&by=support|size``)
``/query/match``      POST    ``{"pattern": GRAPH, "induced": bool}``
``/query/contains``   POST    ``{"graph": GRAPH, "induced": bool}``
``/reload``           POST    hot-reload if the catalog advanced
====================  ======  ==========================================

``/metrics``          GET     Prometheus text exposition of the obs
                              metrics registry (query latency histograms,
                              cache counters, breaker gauges)

``GRAPH`` is the store wire format: ``{"vertices": [labels], "edges":
[[u, v, label], ...]}``.  Every query response carries the snapshot
``version`` it was answered from, which is what the no-torn-reads test
asserts on.

Concurrency model
-----------------

* **Bounded worker pool** — query execution happens on ``workers`` pool
  threads fed by a queue of :data:`QUEUE_SIZE` jobs; when the queue is
  full the request is rejected with 503 instead of piling up (load
  shedding).  Connection handling itself is ``ThreadingHTTPServer``'s
  thread-per-connection.
* **Request batching** — concurrent *identical* queries (same endpoint,
  same graph content digest, same engine) are single-flighted: one leader
  computes, followers wait on its result.  ``stats()["batched"]`` counts
  the queries that never reached the engine.
* **Hot reload** — :meth:`reload` polls the catalog manifest and, when a
  new snapshot was published (e.g. by an
  :class:`~repro.core.incremental.IncrementalPartMiner` re-mine), builds
  a fresh engine and swaps it in with a single reference assignment.
  In-flight queries finish on the snapshot they started with; new
  queries see the new one — snapshot isolation, never a torn mixture.
  Optional ``reload_interval`` runs the poll on a background thread.
* **Circuit breakers** — the ``catalog`` (reload) and ``query`` (engine)
  dependencies each open after :data:`BREAKER_FAILURES` consecutive
  failures and admit a half-open probe :data:`BREAKER_RESET` seconds
  later.  Bad client input is a 400 before the breaker and never counts.
* **Graceful shutdown** — :meth:`close` stops accepting connections,
  drains the worker queue, and joins every thread.
"""

from __future__ import annotations

import json
import math
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..graph.database import GraphDatabase
from ..graph.labeled_graph import LabeledGraph
from ..obs import metrics as obs_metrics
from ..resilience import faults
from ..resilience.errors import CircuitOpen, DeadlineExceeded
from ..resilience.health import CircuitBreaker, Deadline
from .catalog import PatternCatalog
from .engine import TOP_K_BY, QueryEngine
from .index import graph_digest

SITE_REQUEST = faults.register_site(
    "serve.request", "HTTP request handling in PatternService"
)
SITE_RELOAD = faults.register_site(
    "serve.reload", "catalog snapshot reload in PatternService"
)
SITE_METRICS_SCRAPE = faults.register_site(
    "obs.metrics_scrape", "/metrics rendering in PatternService"
)

#: Query jobs that may wait for a worker before requests are shed (503).
QUEUE_SIZE = 64
#: Consecutive failures that open a dependency's circuit breaker.
BREAKER_FAILURES = 3
#: Seconds an open breaker waits before admitting a half-open probe.
BREAKER_RESET = 5.0

#: Routes kept as-is in the ``route`` label; everything else is "other"
#: so a 404 scan cannot explode the label space.
_KNOWN_ROUTES = frozenset(
    {
        "/healthz", "/readyz", "/stats", "/patterns", "/metrics",
        "/reload", "/query/match", "/query/contains",
    }
)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def encode_graph(graph: LabeledGraph) -> dict:
    """A labeled graph as the JSON wire object (store record layout)."""
    return {
        "vertices": graph.vertex_labels(),
        "edges": [[u, v, label] for u, v, label in graph.edges()],
    }


#: Python types of JSON scalars (``bool`` is an ``int``).
_JSON_SCALARS = (str, int, float, type(None))


def decode_graph(payload: dict) -> LabeledGraph:
    """Parse the wire object back into a :class:`LabeledGraph`.

    Every malformed shape raises :class:`ValueError` (HTTP 400), so bad
    client input never reaches the engine or counts against its breaker.
    """
    if not isinstance(payload, dict):
        raise ValueError("graph payload must be an object")
    try:
        vertices = payload["vertices"]
        edges = payload["edges"]
    except KeyError as exc:
        raise ValueError(f"graph payload missing {exc.args[0]!r}") from None
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise ValueError("graph 'vertices' and 'edges' must be lists")
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 3:
            raise ValueError(f"an edge must be [u, v, label]: {edge!r}")
        if type(edge[0]) is not int or type(edge[1]) is not int:
            raise ValueError(f"edge endpoints must be integers: {edge!r}")
    for labels in (vertices, [label for _, _, label in edges]):
        if not all(isinstance(x, _JSON_SCALARS) for x in labels):
            raise ValueError("graph labels must be JSON scalars")
        try:  # canonical codes order labels of one kind against each other
            sorted(set(labels))
        except TypeError:
            raise ValueError("graph labels of one kind must be "
                             "mutually comparable") from None
    return LabeledGraph.from_vertices_and_edges(
        vertices, [(u, v, label) for u, v, label in edges]
    )


class ServiceError(Exception):
    """An error with an HTTP status attached."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# Bounded worker pool
# ----------------------------------------------------------------------
class _Job:
    __slots__ = ("fn", "event", "result", "error")

    def __init__(self, fn) -> None:
        self.fn = fn
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class _WorkerPool:
    """``size`` daemon threads draining a bounded job queue."""

    def __init__(self, size: int, queue_size: int) -> None:
        self._queue: "queue.Queue[_Job | None]" = queue.Queue(
            maxsize=max(1, queue_size)
        )
        self._threads = [
            threading.Thread(
                target=self._run, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(size)
        ]
        for thread in self._threads:
            thread.start()

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                job.result = job.fn()
            except BaseException as exc:  # propagated to the waiter
                job.error = exc
            finally:
                job.event.set()
                self._queue.task_done()

    def submit(self, fn) -> _Job | None:
        """Enqueue ``fn``; ``None`` when the queue is full (shed load)."""
        job = _Job(fn)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            return None
        return job

    def close(self) -> None:
        """Drain outstanding jobs, then stop and join every worker."""
        self._queue.join()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Single-flight request batching
# ----------------------------------------------------------------------
class _Flight:
    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class _SingleFlight:
    """Deduplicate concurrent identical computations by key."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict = {}
        self.batched = 0  # calls served by another caller's computation

    def execute(self, key, fn):
        """Run ``fn`` once per concurrent ``key``; share the outcome."""
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self.batched += 1
            else:
                flight = _Flight()
                self._inflight[key] = flight
        if existing is not None:
            existing.event.wait()
            if existing.error is not None:
                raise existing.error
            return existing.result
        try:
            flight.result = fn()
            return flight.result
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class PatternService:
    """HTTP pattern-serving frontend (see module docs).

    Construct with a catalog (its current snapshot is loaded) and the
    database to answer ``match``/``coverage`` against, then :meth:`start`.
    Use ``port=0`` to bind an ephemeral port (tests); ``service.port``
    reports the bound one.
    """

    def __init__(
        self,
        catalog: PatternCatalog,
        database: GraphDatabase,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        reload_interval: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        # Event.wait(x) returns at once for x <= 0 or NaN: a hot loop.
        if reload_interval is not None and not 0 < reload_interval < math.inf:
            raise ValueError(
                f"reload_interval must be positive and finite: "
                f"{reload_interval}"
            )
        self.catalog = catalog
        self.database = database
        self.host = host
        self._requested_port = port
        self._engine = QueryEngine(catalog.load(), database)
        self._engine_lock = threading.Lock()
        self._pool = _WorkerPool(workers, QUEUE_SIZE)
        self._flights = _SingleFlight()
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._reload_interval = reload_interval
        self._reload_stop = threading.Event()
        self._reload_thread: threading.Thread | None = None
        # Per-dependency circuit breakers: catalog reloads and the query
        # engine fail (and recover) independently.
        self.breakers = {
            name: CircuitBreaker(
                name,
                failure_threshold=BREAKER_FAILURES,
                reset_timeout=BREAKER_RESET,
            )
            for name in ("catalog", "query")
        }
        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "errors": 0,
            "rejected": 0,
            "reloads": 0,
            "deadline_exceeded": 0,
            "circuit_rejections": 0,
            "started_at": time.time(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def engine(self) -> QueryEngine:
        """The engine currently serving (swapped atomically on reload)."""
        return self._engine

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PatternService":
        """Bind, start serving on a background thread, return self."""
        if self._server is not None:
            raise RuntimeError("service already started")
        service = self

        class Handler(_RequestHandler):
            pass

        Handler.service = service
        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._server.daemon_threads = True
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="serve-http",
            daemon=True,
        )
        self._server_thread.start()
        if self._reload_interval:
            self._reload_thread = threading.Thread(
                target=self._reload_loop, name="serve-reload", daemon=True
            )
            self._reload_thread.start()
        return self

    def close(self) -> None:
        """Graceful shutdown: stop accepting, drain workers, join."""
        self._reload_stop.set()
        if self._reload_thread is not None:
            self._reload_thread.join(timeout=5)
            self._reload_thread = None
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5)
            self._server = None
            self._server_thread = None
        self._pool.close()

    def __enter__(self) -> "PatternService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def reload(self, database: GraphDatabase | None = None) -> bool:
        """Swap in the catalog's latest snapshot if it advanced.

        Returns ``True`` when a new engine was installed.  ``database``
        optionally replaces the served database in the same swap (an
        incremental re-mine usually publishes patterns for an updated
        database; swapping both together keeps them consistent).

        Runs through the ``catalog`` circuit breaker: repeated reload
        failures (corrupt manifest, unreadable snapshot) open it, /reload
        then fails fast with :class:`~repro.resilience.errors.CircuitOpen`
        until a half-open probe succeeds — the service keeps answering
        queries from the snapshot it already holds throughout.
        """
        breaker = self.breakers["catalog"]
        if not breaker.allow():
            raise CircuitOpen("catalog")
        try:
            with self._engine_lock:
                faults.fire(SITE_RELOAD)
                current = self._engine.snapshot.version
                published = self.catalog.current_version()
                if published is None or (
                    published == current and database is None
                ):
                    breaker.record_success()
                    return False
                if database is not None:
                    self.database = database
                snapshot = (
                    self._engine.snapshot
                    if published == current
                    else self.catalog.load()
                )
                self._engine = QueryEngine(snapshot, self.database)
                with self._stats_lock:
                    self._stats["reloads"] += 1
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        return True

    def _reload_loop(self) -> None:
        while not self._reload_stop.wait(self._reload_interval):
            try:
                self.reload()
            except Exception:  # noqa: BLE001 - keep polling
                with self._stats_lock:
                    self._stats["errors"] += 1

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._stats_lock:
            digest = dict(self._stats)
        digest["batched"] = self._flights.batched
        digest["uptime"] = round(time.time() - digest.pop("started_at"), 3)
        return digest

    @staticmethod
    def _request_deadline(payload: dict) -> Deadline | None:
        """The request's ``deadline_ms`` budget, if it carries one."""
        millis = payload.get("deadline_ms")
        if millis is None:
            return None
        # bool is an int; a NaN budget would never expire.
        if (
            isinstance(millis, bool)
            or not isinstance(millis, (int, float))
            or not 0 < millis < math.inf
        ):
            raise ServiceError(
                400,
                f"deadline_ms must be a finite positive number, "
                f"got {millis!r}",
            )
        return Deadline.after(millis / 1000.0)

    def execute(self, kind: str, payload: dict) -> dict:
        """Run one query on the current engine (single-flighted).

        The engine reference is captured once; a hot reload during the
        computation does not affect this query — its response reports the
        snapshot version it was computed against.  The query circuit
        breaker fails fast while the engine is deemed broken; the
        request's deadline propagates into the engine's search loops.
        """
        engine = self._engine
        if kind == "match":
            subject = decode_graph(payload.get("pattern"))
        elif kind == "contains":
            subject = decode_graph(payload.get("graph"))
        else:
            raise ServiceError(404, f"unknown query kind {kind!r}")
        induced = bool(payload.get("induced", False))
        deadline = self._request_deadline(payload)

        breaker = self.breakers["query"]
        if not breaker.allow():
            with self._stats_lock:
                self._stats["circuit_rejections"] += 1
            raise ServiceError(503, "query circuit open, retry later")
        flight_key = self._flight_key(engine, kind, subject, induced)
        run = (
            (lambda: engine.match(subject, induced=induced,
                                  deadline=deadline))
            if kind == "match"
            else (lambda: engine.contains(subject, induced=induced,
                                          deadline=deadline))
        )
        try:
            answer = self._flights.execute(flight_key, run)
        except DeadlineExceeded:
            # The caller's budget ran out; the engine is healthy.
            with self._stats_lock:
                self._stats["deadline_exceeded"] += 1
            breaker.record_success()
            raise
        except ServiceError:
            raise
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()

        if kind == "match":
            return {
                "version": engine.snapshot.version,
                "support": answer.support,
                "gids": sorted(answer.gids),
                "lru_hit": answer.stats.lru_hit,
                "searches": answer.stats.searches,
            }
        entries = engine.snapshot.entries
        return {
            "version": engine.snapshot.version,
            "pids": list(answer.pids),
            "patterns": [
                {
                    "pid": pid,
                    "support": entries[pid].support,
                    "size": entries[pid].size,
                }
                for pid in answer.pids
            ],
            "lru_hit": answer.stats.lru_hit,
            "searches": answer.stats.searches,
        }

    # ------------------------------------------------------------------
    # Health / readiness
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """Ready = engine loaded, no open circuit."""
        return self._engine is not None and all(
            b.state != "open" for b in self.breakers.values()
        )

    def health_payload(self) -> tuple[int, dict]:
        """(status_code, body) for ``/healthz`` and ``/readyz``.

        ``status`` flips from ``ok`` to ``unready`` whenever a breaker
        is open; it recovers as soon as a half-open probe closes the
        breaker again.
        """
        ready = self.ready()
        body = {
            "status": "ok" if ready else "unready",
            "ready": ready,
            "version": self._engine.snapshot.version,
            "patterns": len(self._engine.snapshot.entries),
            "circuits": {
                name: breaker.snapshot()
                for name, breaker in self.breakers.items()
            },
        }
        return (200 if ready else 503), body

    @staticmethod
    def _flight_key(
        engine: QueryEngine, kind: str, graph: LabeledGraph, induced: bool
    ) -> tuple:
        """Batching key: same engine + same graph content => one flight."""
        return (id(engine), kind, graph_digest(graph), induced)

    def list_patterns(self, top: int | None, by: str) -> dict:
        """The ``top`` leading entries by ``by`` (every entry, in catalog
        order, when ``top`` is ``None``); a bad ``by`` is a
        :class:`ValueError` either way."""
        engine = self._engine
        if by not in TOP_K_BY:
            raise ValueError(f"by must be 'support' or 'size': {by!r}")
        entries = (
            engine.snapshot.entries if top is None else engine.top_k(top, by)
        )
        return {
            "version": engine.snapshot.version,
            "total": len(engine.snapshot.entries),
            "patterns": [
                {
                    "pid": entry.pid,
                    "support": entry.support,
                    "size": entry.size,
                    "tids": sorted(entry.tids),
                    "graph": encode_graph(entry.graph),
                }
                for entry in entries
            ],
        }

    def metrics_payload(self) -> str:
        """The Prometheus text page for ``/metrics``.

        Pull-model export: scrape time is when the breaker-state gauges,
        service-stat gauges and, over a store-backed database, the
        storage cache gauges are refreshed into the registry, then the
        whole registry renders.
        """
        faults.fire(SITE_METRICS_SCRAPE)
        registry = obs_metrics.registry()
        for breaker in self.breakers.values():
            breaker.export_gauges()
        snapshot_version = self._engine.snapshot.version
        registry.gauge(
            "repro_serve_snapshot_version",
            "Catalog snapshot version currently served",
        ).set(snapshot_version)
        registry.gauge(
            "repro_serve_patterns",
            "Patterns in the served catalog snapshot",
        ).set(len(self._engine.snapshot.entries))
        stats_gauges = self.stats()
        family = registry.gauge(
            "repro_serve_service_stat",
            "PatternService lifetime counters, by stat name",
            labels=("stat",),
        )
        for name, value in stats_gauges.items():
            if isinstance(value, (int, float)):
                family.labels(stat=name).set(value)
        store_stats = self.database.store_stats()
        if store_stats is not None:
            family = registry.gauge(
                "repro_storage_cache",
                "Decoded-graph cache of the served database's store, "
                "by stat name",
                labels=("stat",),
            )
            for name, value in store_stats.items():
                family.labels(stat=name).set(value)
        return registry.render_prometheus()

    def telemetry_digest(self) -> dict:
        """Serving digest for :class:`repro.runtime.RunTelemetry.serving`."""
        return {
            "service": self.stats(),
            "engine": self._engine.stats_dict(),
        }

    def attach_telemetry(self, telemetry) -> None:
        """Record this service's digest on a ``RunTelemetry``."""
        telemetry.serving = self.telemetry_digest()


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------
class _RequestHandler(BaseHTTPRequestHandler):
    service: PatternService  # bound by PatternService.start()
    protocol_version = "HTTP/1.1"

    # Silence the default stderr access log.
    def log_message(self, *args) -> None:  # noqa: D102
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _count(self, error: bool = False, rejected: bool = False) -> None:
        with self.service._stats_lock:
            self.service._stats["requests"] += 1
            if error:
                self.service._stats["errors"] += 1
            if rejected:
                self.service._stats["rejected"] += 1
        route = urlparse(self.path).path
        obs_metrics.count_http_request(
            route if route in _KNOWN_ROUTES else "other",
            "error" if error else ("rejected" if rejected else "ok"),
        )

    def _send_text(self, status: int, text: str,
                   content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:  # rfile.read(-1) would block until the client hangs up
            self.close_connection = True
            raise ServiceError(400, f"bad Content-Length: {length}")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ServiceError(400, "JSON body must be an object")
        return payload

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        parsed = urlparse(self.path)
        try:
            faults.fire(SITE_REQUEST, path=parsed.path, method="GET")
            if parsed.path in ("/healthz", "/readyz"):
                self._count()
                status, body = service.health_payload()
                self._send_json(status, body)
            elif parsed.path == "/stats":
                self._count()
                self._send_json(
                    200,
                    {
                        "service": service.stats(),
                        "engine": service.engine.stats_dict(),
                    },
                )
            elif parsed.path == "/metrics":
                self._count()
                self._send_text(
                    200,
                    service.metrics_payload(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parsed.path == "/patterns":
                self._count()
                params = parse_qs(parsed.query)
                top = params.get("top", [None])[0]
                if top is not None and not top.isdecimal():
                    raise ValueError(
                        f"top must be a whole number >= 0: {top!r}"
                    )
                self._send_json(
                    200,
                    service.list_patterns(
                        None if top is None else int(top),
                        params.get("by", ["support"])[0],
                    ),
                )
            else:
                self._count(error=True)
                self._send_json(404, {"error": f"no route {parsed.path}"})
        except ServiceError as exc:
            self._count(error=True)
            self._send_json(exc.status, {"error": str(exc)})
        except ValueError as exc:
            self._count(error=True)
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            self._count(error=True)
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.service
        parsed = urlparse(self.path)
        try:
            faults.fire(SITE_REQUEST, path=parsed.path, method="POST")
            if parsed.path == "/reload":
                self._count()
                reloaded = service.reload()
                self._send_json(
                    200,
                    {
                        "reloaded": reloaded,
                        "version": service.engine.snapshot.version,
                    },
                )
                return
            if parsed.path in ("/query/match", "/query/contains"):
                kind = parsed.path.rsplit("/", 1)[1]
                payload = self._read_body()
                job = service._pool.submit(
                    lambda: service.execute(kind, payload)
                )
                if job is None:
                    self._count(rejected=True)
                    self._send_json(
                        503, {"error": "query queue full, retry later"}
                    )
                    return
                job.event.wait()
                if job.error is not None:
                    raise job.error
                self._count()
                self._send_json(200, job.result)
                return
            self._count(error=True)
            self._send_json(404, {"error": f"no route {parsed.path}"})
        except ServiceError as exc:
            self._count(error=True)
            self._send_json(exc.status, {"error": str(exc)})
        except CircuitOpen as exc:
            self._count(error=True)
            self._send_json(503, {"error": str(exc)})
        except DeadlineExceeded as exc:
            self._count(error=True)
            self._send_json(504, {"error": str(exc)})
        except ValueError as exc:
            self._count(error=True)
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            self._count(error=True)
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
