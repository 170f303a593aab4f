"""Tests for the PatternService ``/metrics`` endpoint.

Scrapes must be valid Prometheus text exposition v0.0.4, reflect real
service activity (query latency histograms, HTTP request counters, cache
counters), include the health-layer gauges, and keep label cardinality
bounded (unknown routes collapse to ``other``).
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.mining.gspan import GSpanMiner
from repro.obs import metrics as obs_metrics
from repro.serve.catalog import PatternCatalog
from repro.serve.service import PatternService, encode_graph

from .conftest import random_database

SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"(-?[0-9.e+-]+|\+Inf|-Inf|NaN)$"
)


def http_text(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode(),
        )


def http_post(url, payload, timeout=10):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


@pytest.fixture
def service(tmp_path):
    db = random_database(seed=5100, num_graphs=8, n=6)
    patterns = GSpanMiner().mine(db, 3)
    catalog = PatternCatalog(tmp_path / "catalog")
    catalog.publish(patterns, database=db)
    with PatternService(catalog, db) as svc:
        yield svc


def scrape(svc):
    status, content_type, page = http_text(svc.base_url + "/metrics")
    assert status == 200
    return content_type, page


class TestMetricsEndpoint:
    def test_exposition_is_valid(self, service):
        content_type, page = scrape(service)
        assert "version=0.0.4" in content_type
        assert page.endswith("\n")
        for line in page.strip().splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            assert SAMPLE_RE.match(line), line

    def test_serving_gauges_reflect_snapshot(self, service):
        _, page = scrape(service)
        assert "repro_serve_snapshot_version 1" in page
        match = re.search(r"repro_serve_patterns (\d+)", page)
        assert match and int(match.group(1)) > 0

    def test_queries_show_up_in_latency_histogram(self, service):
        status, body = http_post(
            service.base_url + "/query/contains",
            {"graph": encode_graph(
                random_database(seed=5100, num_graphs=1, n=4)[0]
            )},
        )
        assert status == 200 and "pids" in body
        _, page = scrape(service)
        assert re.search(
            r'repro_query_latency_seconds_count\{kind="contains"\} [1-9]',
            page,
        )
        assert re.search(
            r'repro_serve_queries_total\{kind="contains"\} [1-9]', page
        )

    def test_http_counters_label_known_routes(self, service):
        status, _, _ = http_text(service.base_url + "/healthz")
        assert status == 200
        _, page = scrape(service)
        assert re.search(
            r'repro_http_requests_total\{route="/healthz",'
            r'outcome="ok"\} [1-9]',
            page,
        )

    def test_unknown_routes_collapse_to_other(self, service):
        for path in ("/nope", "/admin", "/x" * 10):
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    service.base_url + path, timeout=10
                )
        _, page = scrape(service)
        routes = set(
            re.findall(r'repro_http_requests_total\{route="([^"]*)"', page)
        )
        for route in routes:
            assert route == "other" or route.startswith("/")
        assert "other" in routes
        assert "/nope" not in routes

    def test_health_gauges_exported(self, service):
        _, page = scrape(service)
        assert 'repro_circuit_state{circuit="query"}' in page
        assert "repro_memory_" not in page

    def test_scrape_counts_itself(self, service):
        scrape(service)
        _, page = scrape(service)
        match = re.search(
            r'repro_http_requests_total\{route="/metrics",'
            r'outcome="ok"\} (\d+)',
            page,
        )
        assert match and int(match.group(1)) >= 1

    def test_store_backed_database_exports_its_cache(self, tmp_path):
        """Over a SQLite-backed database the page carries the store's
        ``GraphLRU.stats()``, read at scrape time (the one record)."""
        from repro.storage import open_backend

        db = random_database(seed=5100, num_graphs=8, n=6)
        patterns = GSpanMiner().mine(db, 3)
        catalog = PatternCatalog(tmp_path / "catalog")
        catalog.publish(patterns, database=db)
        with open_backend("sqlite", tmp_path / "g.db",
                          cache_graphs=2) as backend:
            backend.import_database(db)
            stored = backend.database()
            with PatternService(catalog, stored) as svc:
                status, _ = http_post(
                    svc.base_url + "/query/match",
                    {"pattern": encode_graph(next(iter(patterns)).graph)},
                )
                assert status == 200
                _, page = scrape(svc)
                cache = stored.store_stats()
        assert cache["misses"] > 0
        assert re.search(
            r'^repro_storage_cache\{stat="misses"\} [1-9]', page, re.M
        )
        assert f'repro_storage_cache{{stat="capacity"}} 2' in page

    def test_resident_database_has_no_store_stats(self, service):
        assert service.database.store_stats() is None

    def test_metrics_payload_direct(self, service):
        page = service.metrics_payload()
        assert "# TYPE repro_serve_patterns gauge" in page
        assert re.search(
            r'repro_serve_service_stat\{stat="[a-z_]+"\}', page
        )
