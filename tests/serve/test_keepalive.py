"""Persistent-connection behavior of the HTTP server."""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.serve import BatchingDispatcher, LocalizationServer


@pytest.fixture(scope="module")
def server(knn_entry, serve_store):
    dispatcher = BatchingDispatcher(
        knn_entry.localizer, batch_window_ms=1.0, max_batch=256
    )
    srv = LocalizationServer(knn_entry, dispatcher, store=serve_store, port=0)
    handle = srv.start_background()
    yield srv
    handle.shutdown()


def _raw_request(path: str, *, version="1.1", headers=()) -> bytes:
    lines = [f"GET {path} HTTP/{version}"] + list(headers) + ["", ""]
    return "\r\n".join(lines).encode("latin-1")


def _read_response(sock: socket.socket) -> tuple[int, dict, bytes]:
    """Read exactly one framed response off the socket."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(4096)
        if not chunk:
            raise AssertionError("connection closed mid-response")
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split()[1])
    headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    while len(rest) < length:
        chunk = sock.recv(4096)
        if not chunk:
            raise AssertionError("connection closed mid-body")
        rest += chunk
    return status, headers, rest[:length]


class TestKeepAlive:
    def test_two_requests_one_connection(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(_raw_request("/healthz"))
            status, headers, _ = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            sock.sendall(_raw_request("/models"))
            status, headers, body = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert "models" in json.loads(body)

    def test_http_client_reuses_connection(self, server, query_rows):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            for scan in query_rows[:3]:
                conn.request(
                    "POST",
                    "/localize",
                    body=json.dumps(
                        {"api_version": 1, "rssi": scan.tolist()}
                    ),
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert not response.will_close
                assert "location" in payload
        finally:
            conn.close()

    def test_request_counter_counts_each_cycle(self, server):
        before = server.requests_served
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            for _ in range(3):
                sock.sendall(_raw_request("/healthz"))
                _read_response(sock)
        assert server.requests_served == before + 3


class TestConnectionClose:
    def test_connection_close_header_honored(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                _raw_request("/healthz", headers=["Connection: close"])
            )
            status, headers, _ = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert sock.recv(4096) == b""  # server ended the connection

    def test_http10_defaults_to_close(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(_raw_request("/healthz", version="1.0"))
            status, headers, _ = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert sock.recv(4096) == b""

    def test_http10_keep_alive_optin(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                _raw_request(
                    "/healthz", version="1.0",
                    headers=["Connection: keep-alive"],
                )
            )
            status, headers, _ = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            sock.sendall(_raw_request("/healthz", version="1.0",
                                      headers=["Connection: keep-alive"]))
            status, _, _ = _read_response(sock)
            assert status == 200

    def test_malformed_request_closes_connection(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(b"NOT A REQUEST\r\n\r\n")
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers["connection"] == "close"
            assert sock.recv(4096) == b""

    def test_chunked_transfer_encoding_rejected_and_closed(self, server):
        # Only Content-Length framing is implemented; an unread chunked
        # body would desync the next request on a kept-alive connection.
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /localize HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"7b\r\n"
            )
            status, headers, body = _read_response(sock)
            assert status == 400
            assert b"Transfer-Encoding" in body
            assert headers["connection"] == "close"
            assert sock.recv(4096) == b""

    def test_negative_content_length_is_a_400_not_a_crash(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(
                b"POST /localize HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
            )
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers["connection"] == "close"
            assert sock.recv(4096) == b""

    def test_client_close_between_requests_is_silent(self, server):
        # Open, complete one cycle, close: the server must not log a
        # request or error for the EOF.
        before_errors = server.dispatcher.stats()["errors"]
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(_raw_request("/healthz"))
            _read_response(sock)
        assert server.dispatcher.stats()["errors"] == before_errors
