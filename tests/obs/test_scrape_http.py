"""/v1/metrics over real sockets: coverage and consistency under load."""

import threading

import numpy as np
import pytest

from repro.data import load_split
from repro.models import build_classifier
from repro.serve import (
    ApiKeyAuth,
    HttpClient,
    HttpFrontend,
    HttpServer,
    ModelRegistry,
    Server,
    build_mixed_load,
    run_http_load,
)
from repro.serve.http_run import REQUIRED_METRIC_SERIES
from repro.utils import threads


@pytest.fixture(scope="module")
def split():
    return load_split("digits", 64, 48, seed=7)


def build_http(**frontend_kwargs):
    registry = ModelRegistry()
    registry.add("m", build_classifier("digits", width=4, seed=0),
                 backend="numpy")
    server = Server(registry, max_batch=8, deadline_ms=1.0,
                    gate="confidence", gate_threshold=0.5)
    frontend = HttpFrontend(server, auth=ApiKeyAuth({"ci": "key"}),
                            **frontend_kwargs)
    return HttpServer(frontend, host="127.0.0.1", port=0)


def parse_exposition(text):
    """Prometheus text -> {series-with-labels: float} (no meta lines)."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        values[name] = float(value)
    return values


def scrape(client):
    response = client.metrics()
    assert response.status == 200
    return response.payload["raw"]


def test_metrics_endpoint_serves_required_series(split):
    httpd = build_http()
    with httpd:
        host, port = httpd.address
        traffic = build_mixed_load(split.test.images[:24],
                                   split.test.images[24:48],
                                   num_requests=20, seed=3)
        run_http_load(host, port, traffic, model="m", concurrency=4,
                      api_key="key")
        with HttpClient(host, port, api_key="key") as client:
            text = scrape(client)
    for series in REQUIRED_METRIC_SERIES:
        assert series in text, series
    values = parse_exposition(text)
    assert values["repro_http_requests_total"] >= 20
    assert values["repro_http_served_requests_total"] == 20
    assert values["repro_serve_requests_total"] == 20
    # process thread configuration, read at scrape time
    assert values["repro_blas_threads"] == (threads.blas_threads() or 0)
    assert values["repro_usable_cpus"] == threads.usable_cpus()
    # gate + prediction-path coverage demanded by the acceptance list
    assert "repro_serve_gate_examples_total" in text
    assert "repro_serve_batch_size_bucket" in text
    assert "repro_serve_stage_latency_seconds" in text


def test_metrics_scrape_unauthenticated(split):
    httpd = build_http()
    with httpd:
        host, port = httpd.address
        with HttpClient(host, port) as anon:     # no API key on purpose
            response = anon.metrics()
    assert response.status == 200
    assert "repro_http_requests_total" in response.payload["raw"]


def test_concurrent_scrapes_are_consistent_snapshots(split):
    httpd = build_http()
    with httpd:
        host, port = httpd.address
        traffic = build_mixed_load(split.test.images[:24],
                                   split.test.images[24:48],
                                   num_requests=60, max_request_size=4,
                                   seed=5)
        scrapes = []
        stop = threading.Event()

        def scraper():
            with HttpClient(host, port, api_key="key") as client:
                while not stop.is_set():
                    scrapes.append(scrape(client))

        thread = threading.Thread(target=scraper)
        thread.start()
        try:
            report = run_http_load(host, port, traffic, model="m",
                                   concurrency=8, api_key="key")
        finally:
            stop.set()
            thread.join()
        with HttpClient(host, port, api_key="key") as client:
            scrapes.append(scrape(client))

    assert report.completed == 60
    assert len(scrapes) >= 2
    last_http = 0.0
    for text in scrapes:
        values = parse_exposition(text)
        # per-subsystem snapshots are internally consistent: completions
        # can never outrun admissions within one scrape
        assert values["repro_serve_requests_completed_total"] <= \
            values["repro_serve_requests_total"]
        assert values["repro_http_served_requests_total"] <= \
            values["repro_http_requests_total"]
        # counters are monotone across scrapes
        assert values["repro_http_requests_total"] >= last_http
        last_http = values["repro_http_requests_total"]
        # histogram invariant: +Inf bucket == count
        assert values['repro_serve_batch_size_bucket{le="+Inf"}'] == \
            values["repro_serve_batch_size_count"]
    final = parse_exposition(scrapes[-1])
    served = sum(len(r.images) for r in traffic)
    assert final["repro_serve_examples_total"] == served
    assert final["repro_http_served_examples_total"] == served
