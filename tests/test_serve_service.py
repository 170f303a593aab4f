"""Tests for the HTTP pattern service (repro.serve.service).

The centerpiece is the hot-reload hammering test: threaded clients fire
mixed match/contains queries while the catalog advances underneath the
service, and every response must be exactly what a direct
:class:`QueryEngine` computes for the snapshot version the response
reports — snapshot isolation, no torn reads.
"""

import inspect
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import query
from repro.mining.gspan import GSpanMiner
from repro.runtime import RunTelemetry
from repro.serve.catalog import PatternCatalog
from repro.serve.engine import QueryEngine
from repro.serve.service import (
    BREAKER_FAILURES,
    BREAKER_RESET,
    QUEUE_SIZE,
    PatternService,
    _SingleFlight,
    _WorkerPool,
    decode_graph,
    encode_graph,
)

from .conftest import random_database, triangle


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def http_get(url, timeout=10):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_post(url, payload, timeout=10):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def published_catalog(tmp_path, seed=7100, min_support=4):
    db = random_database(seed=seed, num_graphs=8, n=6)
    patterns = GSpanMiner().mine(db, min_support)
    catalog = PatternCatalog(tmp_path / "catalog")
    catalog.publish(patterns, database=db)
    return catalog, db, patterns


class TestWireFormat:
    def test_graph_roundtrip(self):
        graph = triangle(labels=(1, 2, 3), edge_label=7)
        back = decode_graph(encode_graph(graph))
        assert back.vertex_labels() == graph.vertex_labels()
        assert sorted(back.edges()) == sorted(graph.edges())

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValueError, match="object"):
            decode_graph([1, 2, 3])
        with pytest.raises(ValueError, match="edges"):
            decode_graph({"vertices": [0]})


class TestWorkerPool:
    def test_sheds_load_when_queue_full(self):
        pool = _WorkerPool(size=1, queue_size=1)
        release = threading.Event()
        running = threading.Event()

        def blocker():
            running.set()
            release.wait(timeout=10)
            return "done"

        first = pool.submit(blocker)
        assert running.wait(timeout=5)  # worker busy with `first`
        second = pool.submit(lambda: "queued")  # fills the queue
        assert second is not None
        assert pool.submit(lambda: "rejected") is None
        release.set()
        assert first.event.wait(timeout=5)
        assert first.result == "done"
        pool.close()

    def test_errors_propagate_to_job(self):
        pool = _WorkerPool(size=1, queue_size=4)

        def boom():
            raise RuntimeError("kaput")

        job = pool.submit(boom)
        assert job.event.wait(timeout=5)
        assert isinstance(job.error, RuntimeError)
        pool.close()


class TestSingleFlight:
    def test_concurrent_identical_calls_batched(self):
        flights = _SingleFlight()
        release = threading.Event()
        leader_running = threading.Event()
        calls = []
        results = []

        def compute():
            calls.append(1)
            leader_running.set()
            release.wait(timeout=10)
            return "answer"

        def run():
            results.append(flights.execute("key", compute))

        threads = [threading.Thread(target=run) for _ in range(4)]
        threads[0].start()
        assert leader_running.wait(timeout=5)
        for thread in threads[1:]:
            thread.start()
        deadline = time.time() + 5
        while flights.batched < 3 and time.time() < deadline:
            time.sleep(0.005)
        assert flights.batched == 3
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert calls == [1]  # the computation ran exactly once
        assert results == ["answer"] * 4

    def test_distinct_keys_not_batched(self):
        flights = _SingleFlight()
        assert flights.execute("a", lambda: 1) == 1
        assert flights.execute("b", lambda: 2) == 2
        assert flights.batched == 0

    def test_leader_error_shared_with_followers(self):
        flights = _SingleFlight()
        release = threading.Event()
        leader_running = threading.Event()
        errors = []

        def compute():
            leader_running.set()
            release.wait(timeout=10)
            raise RuntimeError("kaput")

        def run():
            try:
                flights.execute("key", compute)
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=run) for _ in range(2)]
        threads[0].start()
        assert leader_running.wait(timeout=5)
        threads[1].start()
        deadline = time.time() + 5
        while flights.batched < 1 and time.time() < deadline:
            time.sleep(0.005)
        release.set()
        for thread in threads:
            thread.join(timeout=5)
        assert errors == ["kaput", "kaput"]

    def test_sequential_calls_recompute(self):
        flights = _SingleFlight()
        values = iter([10, 20])
        assert flights.execute("key", lambda: next(values)) == 10
        assert flights.execute("key", lambda: next(values)) == 20
        assert flights.batched == 0


class TestEndpoints:
    def test_healthz_stats_patterns(self, tmp_path):
        catalog, db, patterns = published_catalog(tmp_path)
        with PatternService(catalog, db) as service:
            status, body = http_get(service.base_url + "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["ready"] is True
            assert body["version"] == 1
            assert body["patterns"] == len(patterns)
            assert body["circuits"]["catalog"]["state"] == "closed"
            assert body["circuits"]["query"]["state"] == "closed"

            status, body = http_get(service.base_url + "/stats")
            assert status == 200
            assert body["engine"]["snapshot_version"] == 1
            assert body["service"]["requests"] >= 1

            status, body = http_get(
                service.base_url + "/patterns?top=3&by=support"
            )
            assert status == 200
            assert body["total"] == len(patterns)
            assert len(body["patterns"]) == 3
            supports = [p["support"] for p in body["patterns"]]
            assert supports == sorted(supports, reverse=True)

    def test_match_and_contains_equal_direct_engine(self, tmp_path):
        catalog, db, patterns = published_catalog(tmp_path)
        direct = QueryEngine(catalog.load(), db)
        with PatternService(catalog, db) as service:
            for induced in (False, True):
                for pattern in list(patterns)[:4]:
                    status, body = http_post(
                        service.base_url + "/query/match",
                        {
                            "pattern": encode_graph(pattern.graph),
                            "induced": induced,
                        },
                    )
                    assert status == 200
                    want = direct.match(pattern.graph, induced=induced)
                    assert body["gids"] == sorted(want.gids)
                    assert body["support"] == want.support
                    assert body["version"] == 1
                for gid, graph in list(db)[:4]:
                    status, body = http_post(
                        service.base_url + "/query/contains",
                        {
                            "graph": encode_graph(graph),
                            "induced": induced,
                        },
                    )
                    assert status == 200
                    want = direct.contains(graph, induced=induced)
                    assert body["pids"] == list(want.pids)

    def test_error_statuses(self, tmp_path):
        catalog, db, _ = published_catalog(tmp_path)
        with PatternService(catalog, db) as service:
            status, body = http_get(service.base_url + "/nowhere")
            assert status == 404
            status, body = http_post(
                service.base_url + "/query/match", {"pattern": [1]}
            )
            assert status == 400
            assert "object" in body["error"]
            status, body = http_post(
                service.base_url + "/query/match", {"pattern": {"vertices": []}}
            )
            assert status == 400
            status, _ = http_post(service.base_url + "/query/nope", {})
            assert status == 404
            assert service.stats()["errors"] >= 3

    @pytest.mark.parametrize(
        "query",
        ["top=abc", "top=3&by=foo", "top=-1", "by=foo"],
        ids=["top-abc", "by-foo", "top-negative", "by-foo-without-top"],
    )
    def test_bad_patterns_query_is_a_400(self, tmp_path, query):
        catalog, db, _ = published_catalog(tmp_path)
        with PatternService(catalog, db) as service:
            status, body = http_get(f"{service.base_url}/patterns?{query}")
            assert status == 400, body
            status, body = http_get(f"{service.base_url}/patterns?top=0")
            assert (status, body["patterns"]) == (200, [])

    def test_negative_content_length_is_a_400(self, tmp_path):
        """``rfile.read(-1)`` used to block the handler until the client
        hung up, so the client never got an answer."""
        catalog, db, _ = published_catalog(tmp_path)
        with PatternService(catalog, db) as service:
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /query/match HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: -1\r\n\r\n"
                )
                status_line = sock.makefile("rb").readline()
            assert status_line.startswith(b"HTTP/1.1 400"), status_line
            assert http_get(service.base_url + "/healthz")[0] == 200

    def test_graceful_shutdown(self, tmp_path):
        catalog, db, _ = published_catalog(tmp_path)
        service = PatternService(catalog, db).start()
        url = service.base_url + "/healthz"
        assert http_get(url)[0] == 200
        service.close()
        with pytest.raises((ConnectionError, urllib.error.URLError)):
            urllib.request.urlopen(url, timeout=2)

    def test_telemetry_digest(self, tmp_path):
        catalog, db, patterns = published_catalog(tmp_path)
        with PatternService(catalog, db) as service:
            pattern = next(iter(patterns)).graph
            http_post(
                service.base_url + "/query/match",
                {"pattern": encode_graph(pattern)},
            )
            telemetry = RunTelemetry()
            service.attach_telemetry(telemetry)
        assert telemetry.serving["engine"]["queries"] == 1
        assert telemetry.serving["service"]["requests"] == 1
        back = RunTelemetry.from_dict(telemetry.to_dict())
        assert back.serving == telemetry.serving


class TestConstructor:
    def test_signature_is_what_repro_serve_sets(self):
        assert list(inspect.signature(PatternService).parameters) == [
            "catalog", "database", "host", "port", "workers",
            "reload_interval",
        ]

    @pytest.mark.parametrize(
        "knob", ["queue_size", "breaker_failures", "breaker_reset"]
    )
    def test_constant_knobs_are_refused(self, tmp_path, knob):
        catalog, db, _ = published_catalog(tmp_path)
        with pytest.raises(TypeError, match=knob):
            PatternService(catalog, db, **{knob: 1})

    def test_queue_and_breakers_keep_their_values(self, tmp_path):
        """``repro serve`` sheds at 64 queued queries; its breakers open
        after 3 consecutive failures and half-open 5 s later."""
        assert (QUEUE_SIZE, BREAKER_FAILURES, BREAKER_RESET) == (64, 3, 5.0)
        catalog, db, _ = published_catalog(tmp_path)
        service = PatternService(catalog, db)
        assert service._pool._queue.maxsize == QUEUE_SIZE
        for breaker in service.breakers.values():
            assert breaker.failure_threshold == BREAKER_FAILURES
            assert breaker.reset_timeout == BREAKER_RESET
        service.close()


class TestHotReload:
    def test_reload_noop_without_new_snapshot(self, tmp_path):
        catalog, db, _ = published_catalog(tmp_path)
        with PatternService(catalog, db) as service:
            status, body = http_post(service.base_url + "/reload", {})
            assert status == 200
            assert body == {"reloaded": False, "version": 1}

    def test_reload_swaps_snapshot(self, tmp_path):
        catalog, db, _ = published_catalog(tmp_path, min_support=4)
        bigger = GSpanMiner().mine(db, 3)
        with PatternService(catalog, db) as service:
            catalog.publish(bigger, database=db)
            status, body = http_post(service.base_url + "/reload", {})
            assert status == 200
            assert body == {"reloaded": True, "version": 2}
            assert service.engine.snapshot.version == 2
            assert service.stats()["reloads"] == 1

    def test_background_reload_thread(self, tmp_path):
        catalog, db, patterns = published_catalog(tmp_path)
        with PatternService(
            catalog, db, reload_interval=0.05
        ) as service:
            catalog.publish(patterns, database=db)
            deadline = time.time() + 5
            while (
                service.engine.snapshot.version < 2
                and time.time() < deadline
            ):
                time.sleep(0.02)
            assert service.engine.snapshot.version == 2

    @pytest.mark.parametrize(
        "setting",
        [{"reload_interval": -1.0}, {"reload_interval": 0.0},
         {"reload_interval": float("nan")},
         {"reload_interval": float("inf")}, {"workers": 0}],
        ids=["reload-1", "reload0", "reload-nan", "reload-inf", "workers0"],
    )
    def test_settings_that_spin_or_serve_nobody_are_refused(
        self, tmp_path, setting
    ):
        """``Event.wait(x)`` returns at once for x <= 0 or NaN, so such an
        interval would poll the manifest in a hot loop; zero workers
        used to be clamped to one."""
        catalog, db, _ = published_catalog(tmp_path)
        with pytest.raises(ValueError, match=next(iter(setting))):
            PatternService(catalog, db, **setting)

    def test_no_torn_reads_under_concurrent_reload(self, tmp_path):
        """Clients hammer match/contains while snapshots advance.

        Every response must be exactly the answer a direct QueryEngine
        gives for the snapshot version the response reports.
        """
        db = random_database(seed=7500, num_graphs=6, n=6)
        v1_patterns = GSpanMiner().mine(db, 5)
        v2_patterns = GSpanMiner().mine(db, 3)
        assert v1_patterns.keys() != v2_patterns.keys()
        catalog = PatternCatalog(tmp_path / "catalog")
        catalog.publish(v1_patterns, database=db)

        query_patterns = [p.graph for p in list(v2_patterns)[:3]]
        query_graphs = [(gid, graph) for gid, graph in list(db)[:3]]
        # Ground truth per snapshot version, computed on direct engines.
        engines = {1: QueryEngine(catalog.load(), db)}
        expected_match = {
            i: sorted(
                query.match(pattern, db).supporting_gids
            )
            for i, pattern in enumerate(query_patterns)
        }

        responses = []
        failures = []
        stop = threading.Event()

        def hammer(service_url):
            while not stop.is_set():
                for i, pattern in enumerate(query_patterns):
                    status, body = http_post(
                        service_url + "/query/match",
                        {"pattern": encode_graph(pattern)},
                    )
                    if status != 200:
                        failures.append(("match", status, body))
                    else:
                        responses.append(("match", i, body))
                for gid, graph in query_graphs:
                    status, body = http_post(
                        service_url + "/query/contains",
                        {"graph": encode_graph(graph)},
                    )
                    if status != 200:
                        failures.append(("contains", status, body))
                    else:
                        responses.append(("contains", gid, body))

        with PatternService(catalog, db, workers=4) as service:
            threads = [
                threading.Thread(target=hammer, args=(service.base_url,))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            catalog.publish(v2_patterns, database=db)
            engines[2] = QueryEngine(catalog.load(), db)
            http_post(service.base_url + "/reload", {})
            time.sleep(0.3)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            batched = service.stats()["batched"]

        assert not failures
        assert responses
        versions_seen = set()
        for kind, ref, body in responses:
            version = body["version"]
            versions_seen.add(version)
            assert version in engines
            if kind == "match":
                # Match answers depend only on the database, which never
                # changed: identical across snapshot versions.
                assert body["gids"] == expected_match[ref]
            else:
                want = engines[version].contains(db[ref])
                assert body["pids"] == list(want.pids)
        assert 2 in versions_seen  # the reload really happened mid-hammer
        assert batched >= 0  # counter is present and non-negative
