"""ReproClient behaviour: typed errors, 429-aware retry, keep-alive."""

from __future__ import annotations

import pytest

from repro.api import (
    ReproAPIError,
    ReproClient,
    ReproConnectionError,
    ReproOverloadError,
)
from repro.obs import MetricsRegistry
from repro.serve import JsonHttpServer, RequestError
from repro.serve.protocol import error_payload


class ScriptedServer(JsonHttpServer):
    """Answers ``POST /localize`` from a fixed script of responses.

    Each script entry is ``(status, payload_dict)`` or an exception to
    raise; the last entry repeats once the script is exhausted.
    ``connections`` counts accepted TCP connections (keep-alive probe).
    """

    def __init__(self, script) -> None:
        super().__init__(port=0, metrics=MetricsRegistry())
        self.script = list(script)
        self.hits = 0
        self.connections = 0

    async def _handle(self, reader, writer):
        self.connections += 1
        await super()._handle(reader, writer)

    async def _route(self, request):
        request.json()  # negotiate api_version like a real endpoint
        self.hits += 1
        step = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        if isinstance(step, Exception):
            raise step
        status, payload = step
        if status == 429:
            body = error_payload(
                "admission queue full", status=429, retryable=True,
            )
            body.update(payload)
            return 429, body
        if status == 503:
            body = error_payload(
                "fleet worker crashed; slot respawning — retry",
                status=503, retryable=True,
            )
            body.update(payload)
            return 503, body
        return status, payload


@pytest.fixture()
def scripted():
    """Factory: start a scripted server, yield (server, client), clean up."""
    handles = []

    def start(script, **client_kwargs):
        server = ScriptedServer(script)
        handle = server.start_background()
        client = ReproClient(port=handle.port, **client_kwargs)
        handles.append((handle, client))
        return server, client

    yield start
    for handle, client in handles:
        client.close()
        handle.shutdown()


OK = (200, {"location": [1.5, 2.5]})


class TestRetryOn429:
    def test_retries_until_success(self, scripted):
        server, client = scripted(
            [(429, {"retry_after_ms": 1}), (429, {"retry_after_ms": 1}), OK],
            max_retries=3,
        )
        result = client.localize([-50.0])
        assert result.location.tolist() == [1.5, 2.5]
        assert client.retries == 2
        assert server.hits == 3

    def test_gives_up_after_max_retries(self, scripted):
        server, client = scripted(
            [(429, {"retry_after_ms": 1})], max_retries=2
        )
        with pytest.raises(ReproOverloadError) as excinfo:
            client.localize([-50.0])
        assert excinfo.value.status == 429
        assert excinfo.value.retryable is True
        assert excinfo.value.retry_after_ms == 1
        assert server.hits == 3  # initial try + 2 retries

    def test_max_retries_zero_fails_immediately(self, scripted):
        server, client = scripted(
            [(429, {"retry_after_ms": 1})], max_retries=0
        )
        with pytest.raises(ReproOverloadError):
            client.localize([-50.0])
        assert server.hits == 1
        assert client.retries == 0

    def test_overload_is_an_api_error(self, scripted):
        _, client = scripted([(429, {"retry_after_ms": 1})], max_retries=0)
        with pytest.raises(ReproAPIError):
            client.localize([-50.0])


class TestRetryOn503:
    """A retryable 503 (fleet worker respawning) retries like a 429."""

    def test_retries_until_the_slot_respawns(self, scripted):
        server, client = scripted(
            [(503, {"retry_after_ms": 1}), OK], max_retries=2
        )
        result = client.localize([-50.0])
        assert result.location.tolist() == [1.5, 2.5]
        assert client.retries == 1
        assert server.hits == 2

    def test_gives_up_retryable_after_budget(self, scripted):
        server, client = scripted(
            [(503, {"retry_after_ms": 1})], max_retries=2
        )
        with pytest.raises(ReproAPIError) as excinfo:
            client.localize([-50.0])
        assert excinfo.value.status == 503
        assert excinfo.value.retryable is True
        assert excinfo.value.code == "unavailable"
        assert server.hits == 3  # initial try + 2 retries

    def test_mixed_429_then_503_then_ok(self, scripted):
        server, client = scripted(
            [(429, {"retry_after_ms": 1}), (503, {"retry_after_ms": 1}), OK],
            max_retries=3,
        )
        assert client.localize([-50.0]).location.tolist() == [1.5, 2.5]
        assert server.hits == 3


class TestTypedErrors:
    def test_structured_error_surfaces_typed(self, scripted):
        _, client = scripted(
            [RequestError("scan too wide", code="bad_request")]
        )
        with pytest.raises(ReproAPIError) as excinfo:
            client.localize([-50.0])
        err = excinfo.value
        assert err.status == 400
        assert err.code == "bad_request"
        assert "scan too wide" in err.message
        assert err.retryable is False

    def test_unsupported_api_version_code(self, scripted):
        _, client = scripted([OK])
        client.api_version = 999  # simulate a from-the-future client
        with pytest.raises(ReproAPIError) as excinfo:
            client.localize([-50.0])
        assert excinfo.value.code == "unsupported_api_version"

    def test_404_maps_to_not_found(self, scripted):
        _, client = scripted(
            [RequestError("unknown endpoint", status=404)]
        )
        with pytest.raises(ReproAPIError) as excinfo:
            client.localize([-50.0])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not_found"

    def test_connection_error_when_nothing_listens(self):
        client = ReproClient(port=1, max_retries=0, timeout=2.0)
        with pytest.raises(ReproConnectionError):
            client.healthz()


class TestTransport:
    def test_keep_alive_reuses_one_connection(self, scripted):
        server, client = scripted([OK])
        for _ in range(5):
            client.localize([-50.0])
        assert server.hits == 5
        assert server.connections == 1

    def test_close_reopens_on_next_request(self, scripted):
        server, client = scripted([OK])
        client.localize([-50.0])
        client.close()
        client.localize([-50.0])
        assert server.connections == 2

    def test_context_manager_closes(self, scripted):
        server, client = scripted([OK])
        with client:
            client.localize([-50.0])
        assert client._conn is None


class EchoObsServer(JsonHttpServer):
    """Echoes the request's obs fields back so client plumbing is visible."""

    async def _route(self, request):
        payload = request.json()
        return 200, {
            "location": [1.0, 2.0],
            "trace": {
                "request_id": payload.get("request_id"),
                "echo_trace": payload.get("trace"),
            },
        }


class TestObservability:
    @pytest.fixture()
    def echo(self):
        server = EchoObsServer(port=0, metrics=MetricsRegistry())
        handle = server.start_background()
        client = ReproClient(port=handle.port)
        yield server, client
        client.close()
        handle.shutdown()

    def test_trace_and_request_id_sent_and_surfaced(self, echo):
        _, client = echo
        result = client.localize([-50.0], trace=True, request_id="cli-7")
        assert result.trace == {"request_id": "cli-7", "echo_trace": True}

    def test_no_trace_by_default(self, echo):
        _, client = echo
        result = client.localize([-50.0])
        assert result.trace == {"request_id": None, "echo_trace": None}

    def test_typed_errors_carry_request_id(self, scripted):
        _, client = scripted(
            [RequestError("scan too wide", code="bad_request")]
        )
        with pytest.raises(ReproAPIError) as excinfo:
            client.localize([-50.0], request_id="boom-1")
        err = excinfo.value
        assert err.request_id == "boom-1"
        assert "request_id=boom-1" in str(err)

    def test_minted_request_id_on_errors(self, scripted):
        _, client = scripted(
            [RequestError("scan too wide", code="bad_request")]
        )
        with pytest.raises(ReproAPIError) as excinfo:
            client.localize([-50.0])
        # The server mints one when the client doesn't pin it.
        assert isinstance(excinfo.value.request_id, str)
        assert excinfo.value.request_id

    def test_metrics_text_scrapes_prometheus(self, echo):
        _, client = echo
        client.localize([-50.0])
        text = client.metrics_text()
        from repro.obs import parse_prometheus_text

        families = parse_prometheus_text(text)
        assert "repro_http_requests_total" in families


class TestFromUrl:
    @pytest.mark.parametrize(
        "url, host, port",
        [
            ("http://127.0.0.1:8123", "127.0.0.1", 8123),
            ("127.0.0.1:8123", "127.0.0.1", 8123),
            ("http://localhost:9000/", "localhost", 9000),
            ("http://example.test", "example.test", 8000),
        ],
    )
    def test_parsing(self, url, host, port):
        client = ReproClient.from_url(url)
        assert (client.host, client.port) == (host, port)

    def test_https_rejected_not_downgraded(self):
        with pytest.raises(ValueError, match="https is not supported"):
            ReproClient.from_url("https://lab.example.com:8443")

    def test_url_path_rejected(self):
        with pytest.raises(ValueError, match="paths are not supported"):
            ReproClient.from_url("http://host:8000/api")

    def test_invalid_retries_rejected(self):
        with pytest.raises(ValueError):
            ReproClient(max_retries=-1)
