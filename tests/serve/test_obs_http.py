"""Observability over HTTP: /metrics, trace opt-in, structured logs."""

from __future__ import annotations

import http.client
import io
import json
import socket

import pytest

from repro import __version__
from repro.obs import parse_prometheus_text
from repro.serve import BatchingDispatcher, LocalizationServer
from repro.serve.protocol import MAX_BODY_BYTES


@pytest.fixture(scope="module")
def server(knn_entry, serve_store):
    dispatcher = BatchingDispatcher(
        knn_entry.localizer, batch_window_ms=1.0, max_batch=256
    )
    srv = LocalizationServer(
        knn_entry, dispatcher, store=serve_store, port=0,
        log_json=True, slow_ms=None,
    )
    # Capture the structured log deterministically (the background
    # server thread writes to the logger's stream at emit time).
    srv.log._stream = io.StringIO()
    handle = srv.start_background()
    yield srv
    handle.shutdown()


def _request(server, method, path, payload=None):
    if payload is not None and "api_version" not in payload:
        payload = {"api_version": 1, **payload}
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    conn.request(
        method, path, body=json.dumps(payload) if payload is not None else None
    )
    response = conn.getresponse()
    data = response.read()
    content_type = response.getheader("Content-Type")
    conn.close()
    return response.status, data, content_type


def _json(server, method, path, payload=None):
    status, data, _ = _request(server, method, path, payload)
    return status, json.loads(data)


def _log_records(server) -> list[dict]:
    return [
        json.loads(line)
        for line in server.log._stream.getvalue().splitlines()
    ]


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, server, query_rows):
        _json(server, "POST", "/localize", {"rssi": query_rows[0].tolist()})
        status, data, content_type = _request(server, "GET", "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        families = parse_prometheus_text(data.decode())
        assert "repro_http_requests_total" in families
        assert "repro_http_request_seconds" in families
        assert "repro_batch_compute_seconds" in families

    def test_request_counters_advance_by_endpoint(self, server, query_rows):
        def count():
            _, data, _ = _request(server, "GET", "/metrics")
            samples = parse_prometheus_text(data.decode())[
                "repro_http_requests_total"
            ]["samples"]
            return sum(
                v
                for (name, labels), v in samples.items()
                if ("endpoint", "/localize") in labels
                and ("status", "200") in labels
            )

        before = count()
        _json(server, "POST", "/localize", {"rssi": query_rows[0].tolist()})
        assert count() == before + 1

    def test_unknown_paths_bounded_to_other_label(self, server):
        _json(server, "GET", "/no-such-endpoint-xyz")
        _, data, _ = _request(server, "GET", "/metrics")
        samples = parse_prometheus_text(data.decode())[
            "repro_http_requests_total"
        ]["samples"]
        endpoints = {
            dict(labels)["endpoint"] for (_, labels) in samples
        }
        assert "other" in endpoints
        assert "/no-such-endpoint-xyz" not in endpoints

    def test_post_metrics_is_405(self, server):
        status, body = _json(server, "POST", "/metrics", payload={})
        assert status == 405
        assert "error" in body


class TestTraceOptIn:
    def test_trace_spans_attached_when_requested(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {"rssi": query_rows[0].tolist(), "trace": True},
        )
        assert status == 200
        trace = body["trace"]
        stages = [span["stage"] for span in trace["spans"]]
        assert "queue" in stages and "compute" in stages
        assert trace["total_ms"] > 0
        assert trace["request_id"]

    def test_no_trace_by_default(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize", {"rssi": query_rows[0].tolist()}
        )
        assert status == 200
        assert "trace" not in body

    def test_non_boolean_trace_rejected(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {"rssi": query_rows[0].tolist(), "trace": "yes"},
        )
        assert status == 400
        assert "trace" in body["error"]["message"]

    def test_client_pinned_request_id_echoed(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {
                "rssi": query_rows[0].tolist(),
                "trace": True,
                "request_id": "pin-me-123",
            },
        )
        assert status == 200
        assert body["trace"]["request_id"] == "pin-me-123"

    def test_malformed_request_id_rejected(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {"rssi": query_rows[0].tolist(), "request_id": "has spaces!"},
        )
        assert status == 400
        assert "request_id" in body["error"]["message"]


class TestErrorEnvelope:
    def test_errors_carry_request_id(self, server):
        status, body = _json(server, "POST", "/localize", {"rssi": "nope"})
        assert status == 400
        assert isinstance(body["request_id"], str) and body["request_id"]

    def test_pinned_id_echoed_in_error(self, server):
        status, body = _json(
            server, "POST", "/localize",
            {"rssi": "nope", "request_id": "err-trace-1"},
        )
        assert status == 400
        assert body["request_id"] == "err-trace-1"


class TestStructuredLog:
    def test_request_line_links_to_trace(self, server, query_rows):
        status, body = _json(
            server, "POST", "/localize",
            {
                "rssi": query_rows[0].tolist(),
                "trace": True,
                "request_id": "log-link-42",
            },
        )
        assert status == 200
        records = [
            r for r in _log_records(server)
            if r.get("request_id") == "log-link-42"
        ]
        assert records, "request line missing from structured log"
        record = records[-1]
        assert record["component"] == "serve"
        assert record["event"] == "request"
        assert record["endpoint"] == "/localize"
        assert record["status"] == 200
        assert record["duration_ms"] > 0


class TestHealthz:
    def test_version_and_uptime(self, server):
        status, body = _json(server, "GET", "/healthz")
        assert status == 200
        assert body["version"] == __version__
        assert body["uptime_seconds"] >= 0


@pytest.fixture()
def fresh_server(knn_entry):
    """A server with an empty registry, so series counts are exact."""
    dispatcher = BatchingDispatcher(knn_entry.localizer, batch_window_ms=1.0)
    srv = LocalizationServer(knn_entry, dispatcher, port=0, log_json=True)
    srv.log._stream = io.StringIO()
    handle = srv.start_background()
    yield srv
    handle.shutdown()


def _raw_exchange(server, request: bytes) -> int:
    """Send raw bytes on a fresh connection; returns the response status."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(request)
        response = b""
        while b"\r\n" not in response:
            chunk = sock.recv(4096)
            if not chunk:
                break
            response += chunk
    return int(response.split(b" ", 2)[1])


def _http_series(server) -> dict:
    """``{(endpoint, method, status): count}`` of the HTTP request family."""
    return dict(
        server.metrics.snapshot().metrics["repro_http_requests_total"]["children"]
    )


class TestBoundedLabels:
    def test_unknown_methods_fold_into_one_series(self, fresh_server):
        before = set(_http_series(fresh_server))
        for i in range(8):
            status = _raw_exchange(
                fresh_server, f"M{i} /healthz HTTP/1.1\r\n\r\n".encode()
            )
            assert status == 405
        added = set(_http_series(fresh_server)) - before
        assert added == {("/healthz", "other", "405")}


class TestFramingErrorsCounted:
    def test_malformed_framing_reaches_metrics_and_log(self, fresh_server):
        for _ in range(5):
            assert _raw_exchange(fresh_server, b"PUT /healthz HTTP/1.1\r\n\r\n") == 405
        assert _raw_exchange(fresh_server, b"GARBAGE\r\n\r\n") == 400
        oversized = (
            f"POST /localize HTTP/1.1\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode()
        assert _raw_exchange(fresh_server, oversized) == 413
        series = _http_series(fresh_server)
        assert fresh_server.requests_served == 7 == sum(series.values())
        assert series[("other", "other", "400")] == 1
        assert series[("other", "other", "413")] == 1
        # No handling time was measured, so no latency sample is taken.
        latency = fresh_server.metrics.snapshot().metrics[
            "repro_http_request_seconds"
        ]["children"]
        assert latency.get(("other",), {"count": 0})["count"] == 0
        logged = [
            (r["endpoint"], r["status"], r["duration_ms"])
            for r in _log_records(fresh_server)
        ]
        assert ("other", 400, None) in logged
        assert ("other", 413, None) in logged
