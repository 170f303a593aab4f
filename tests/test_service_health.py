"""Service health: /healthz|/readyz flips, breakers, deadlines."""

import pytest

from repro.serve.service import (
    BREAKER_FAILURES,
    BREAKER_RESET,
    PatternService,
    ServiceError,
    encode_graph,
)

from .conftest import path_graph
from .faults import FaultPlan
from .test_serve_service import http_get, http_post, published_catalog


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_service(tmp_path, clock=None):
    """A service over a published catalog; ``clock`` drives its breakers."""
    catalog, db, patterns = published_catalog(tmp_path)
    service = PatternService(catalog, db)
    if clock is not None:
        for breaker in service.breakers.values():
            breaker.clock = clock
    return service, patterns


class TestHealthFlip:
    def test_healthz_flips_under_open_circuit_and_recovers(self, tmp_path):
        """The acceptance drill: open circuit => unready; successful
        half-open probe => ok again."""
        clock = FakeClock()
        service, _ = make_service(tmp_path, clock=clock)
        with service:
            status, body = http_get(service.base_url + "/healthz")
            assert (status, body["status"]) == (200, "ok")

            # BREAKER_FAILURES failing reloads trip the catalog breaker.
            plan = FaultPlan().inject(
                "serve.reload", OSError("manifest unreadable"),
                times=BREAKER_FAILURES,
            )
            with plan.active():
                for _ in range(BREAKER_FAILURES):
                    status, body = http_post(
                        service.base_url + "/reload", {}
                    )
                    assert status == 500
            assert service.breakers["catalog"].state == "open"

            status, body = http_get(service.base_url + "/healthz")
            assert status == 503
            assert body["status"] == "unready"
            assert body["ready"] is False
            assert body["circuits"]["catalog"]["state"] == "open"

            # While open, /reload fails fast with 503 (no catalog I/O).
            status, body = http_post(service.base_url + "/reload", {})
            assert status == 503
            assert "circuit" in body["error"]

            # After the reset timeout a half-open probe is admitted; the
            # fault is spent, so it succeeds and closes the breaker.
            clock.advance(BREAKER_RESET)
            status, body = http_post(service.base_url + "/reload", {})
            assert status == 200
            assert service.breakers["catalog"].state == "closed"

            status, body = http_get(service.base_url + "/healthz")
            assert (status, body["status"]) == (200, "ok")

    def test_readyz_mirrors_healthz(self, tmp_path):
        service, _ = make_service(tmp_path)
        with service:
            for route in ("/healthz", "/readyz"):
                status, body = http_get(service.base_url + route)
                assert status == 200
                assert body["ready"] is True
                assert set(body) >= {"circuits", "version"}
                assert "memory" not in body


class TestQueryBreaker:
    def test_open_query_circuit_rejects_with_503(self, tmp_path):
        service, _ = make_service(tmp_path)
        with service:
            for _ in range(BREAKER_FAILURES):
                service.breakers["query"].record_failure()
            assert service.breakers["query"].state == "open"
            status, body = http_post(
                service.base_url + "/query/match",
                {"pattern": encode_graph(path_graph(2))},
            )
            assert status == 503
            assert "circuit" in body["error"]
            assert service.stats()["circuit_rejections"] == 1
            status, body = http_get(service.base_url + "/healthz")
            assert status == 503 and body["status"] == "unready"

    def test_engine_failures_trip_then_recover(self, tmp_path):
        clock = FakeClock()
        service, _ = make_service(tmp_path, clock=clock)
        boom = {"on": True}
        real_match = service._engine.match

        def flaky_match(pattern, induced=False, deadline=None):
            if boom["on"]:
                raise RuntimeError("engine exploded")
            return real_match(pattern, induced=induced, deadline=deadline)

        service._engine.match = flaky_match
        payload = {"pattern": encode_graph(path_graph(2))}
        for _ in range(BREAKER_FAILURES):
            with pytest.raises(RuntimeError):
                service.execute("match", payload)
        assert service.breakers["query"].state == "open"
        with pytest.raises(ServiceError) as excinfo:
            service.execute("match", payload)
        assert excinfo.value.status == 503

        boom["on"] = False
        clock.advance(BREAKER_RESET)
        answer = service.execute("match", payload)
        assert answer["version"] == 1
        assert service.breakers["query"].state == "closed"

    @pytest.mark.parametrize(
        "graph",
        [
            {"vertices": [[1], 2], "edges": [[0, 1, 0]]},
            {"vertices": [1, 2], "edges": [[0, 1, {"x": 1}]]},
            {"vertices": ["a", 1], "edges": [[0, 1, 0]]},
            {"vertices": "ab", "edges": []},
            {"vertices": [1, 2], "edges": {"0": [1, 0]}},
            {"vertices": [1, 2], "edges": [5]},
            {"vertices": [1, 2], "edges": [[0, "1", 0]]},
            {"vertices": [1, 2], "edges": [[0, 1.0, 0]]},
            {"vertices": [1, 2], "edges": [[False, True, 0]]},
        ],
        ids=[
            "list-label", "object-label", "mixed-labels", "vertices-str",
            "edges-object", "edge-int", "endpoint-str", "endpoint-float",
            "endpoint-bool",
        ],
    )
    def test_bad_client_input_does_not_trip_the_breaker(
        self, tmp_path, graph
    ):
        """Malformed graphs answer 400 before the breaker, so a good
        query right after them is served, not refused for the reset
        window."""
        service, _ = make_service(tmp_path)
        with service:
            for route, key in (("match", "pattern"), ("contains", "graph")):
                for _ in range(BREAKER_FAILURES):
                    status, body = http_post(
                        f"{service.base_url}/query/{route}", {key: graph}
                    )
                    assert status == 400, body
            assert service.breakers["query"].snapshot()["failures"] == 0
            status, body = http_post(
                service.base_url + "/query/match",
                {"pattern": encode_graph(path_graph(2))},
            )
            assert status == 200, body
            assert service.breakers["query"].state == "closed"


class TestDeadlines:
    def test_expired_deadline_maps_to_504(self, tmp_path):
        service, _ = make_service(tmp_path)
        with service:
            status, body = http_post(
                service.base_url + "/query/match",
                {
                    "pattern": encode_graph(path_graph(2)),
                    "deadline_ms": 0.0001,
                },
            )
            assert status == 504
            assert "deadline" in body["error"]
            assert service.stats()["deadline_exceeded"] == 1
            # The engine is healthy: a deadline miss is the caller's
            # budget, not a dependency failure.
            assert service.breakers["query"].state == "closed"

    def test_generous_deadline_answers_normally(self, tmp_path):
        service, _ = make_service(tmp_path)
        with service:
            status, body = http_post(
                service.base_url + "/query/match",
                {
                    "pattern": encode_graph(path_graph(2)),
                    "deadline_ms": 60_000,
                },
            )
            assert status == 200
            assert body["support"] >= 0

    def test_bad_deadline_rejected(self, tmp_path):
        service, _ = make_service(tmp_path)
        # A NaN budget never expires; true is an int to Python.
        for bad in ("soon", -5, 0, float("nan"), float("inf"), True):
            with pytest.raises(ServiceError) as excinfo:
                service.execute(
                    "match",
                    {
                        "pattern": encode_graph(path_graph(2)),
                        "deadline_ms": bad,
                    },
                )
            assert excinfo.value.status == 400


class TestCircuitOpenMapping:
    def test_circuit_open_maps_to_503_over_http(self, tmp_path):
        service, _ = make_service(tmp_path)
        with service:
            for _ in range(BREAKER_FAILURES):
                service.breakers["catalog"].record_failure()
            status, body = http_post(service.base_url + "/reload", {})
            assert status == 503
            assert "circuit" in body["error"]

    def test_reload_failure_counts_on_breaker(self, tmp_path):
        service, _ = make_service(tmp_path)
        plan = FaultPlan().inject("serve.reload", OSError("io"), times=1)
        with plan.active():
            with pytest.raises(OSError):
                service.reload()
        assert service.breakers["catalog"].stats["failures"] == 1
        # A clean reload closes the streak again.
        assert service.reload() is False
        assert service.breakers["catalog"].snapshot()[
            "consecutive_failures"
        ] == 0
