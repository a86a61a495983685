"""Load generation over raw keep-alive HTTP/1.1 connections.

Request bytes are encoded before the measured window starts and
response bodies are kept raw until it ends, so the generator spends no
JSON time while the server is being measured; on a two-core machine
that CPU would otherwise come out of the server's budget. One
:class:`Connection` is one socket used by one thread at a time.

* :func:`open_loop` sends on a schedule (independent phones): each
  request is due at a fixed offset and its latency runs from the due
  time, so a stall also charges the requests it delays.
* :func:`closed_loop` keeps every connection busy (aggregating
  gateways): the next request goes out when the previous answer is in.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

#: Per-request socket timeout; a request that takes longer has failed.
TIMEOUT_S = 10.0


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    """Complete HTTP/1.1 request bytes around an already-encoded body."""
    head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    if body:
        head += "Content-Type: application/json\r\n"
    head += f"Content-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


def encode_request(method: str, path: str, payload: dict | None = None) -> bytes:
    """Complete HTTP/1.1 request bytes with a compact JSON body."""
    body = b"" if payload is None else json.dumps(
        payload, separators=(",", ":")
    ).encode()
    return http_request(method, path, body)


class Connection:
    """One keep-alive client socket speaking Content-Length framing."""

    def __init__(self, port: int, *, timeout: float = TIMEOUT_S) -> None:
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buf = bytearray()

    def _socket(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(("127.0.0.1", self.port), self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._buf.clear()
        return self._sock

    def send(self, raw: bytes) -> None:
        self._socket().sendall(raw)

    def receive(self) -> tuple[int, bytes]:
        """Read one response: ``(status, body)``."""
        sock = self._socket()
        while True:
            head_end = self._buf.find(b"\r\n\r\n")
            if head_end >= 0:
                break
            self._fill(sock)
        head = bytes(self._buf[:head_end]).decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        end = head_end + 4 + length
        while len(self._buf) < end:
            self._fill(sock)
        body = bytes(self._buf[head_end + 4 : end])
        del self._buf[:end]
        if "connection: close" in (line.lower() for line in head[1:]):
            self.close()
        return status, body

    def _fill(self, sock: socket.socket) -> None:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def roundtrip(self, raw: bytes) -> tuple[int, bytes]:
        self.send(raw)
        return self.receive()

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buf.clear()


@dataclass
class Exchange:
    """One request/response as the client saw it (times: perf_counter s)."""

    kind: str
    #: Index into the workload's request table.
    item: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes = b""
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_s(self) -> float:
        """From due time (open loop) or send time (closed loop) to answer."""
        return self.done - self.due

    @property
    def rtt_s(self) -> float:
        return self.done - self.sent

    def json(self) -> dict:
        return json.loads(self.body)


def exchange(
    conn: Connection, kind: str, item: int, raw: bytes, due: float | None = None
) -> Exchange:
    """Send ``raw`` and wait for its answer; failures become status 0."""
    sent = time.perf_counter()
    try:
        status, body = conn.roundtrip(raw)
        error = None
    except (OSError, ValueError, IndexError) as exc:
        conn.close()
        status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    return Exchange(kind, item, sent if due is None else due, sent, done,
                    status, body, error)


def _run_threads(targets: list[Callable[[], None]]) -> None:
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)
            raise

    threads = [
        threading.Thread(target=guarded, args=(t,), daemon=True) for t in targets
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(
    port: int,
    requests: list[bytes],
    offsets_s: list[float],
    *,
    kind: str,
    connections: int,
) -> tuple[list[Exchange], float]:
    """Send ``requests[i]`` at ``start + offsets_s[i]`` over ``connections``.

    Requests are taken in due order by whichever connection is free;
    one that falls due while every connection is busy waits, and that
    wait counts in its latency. Returns the exchanges and the start time.
    """
    lock = threading.Lock()
    order = iter(range(len(requests)))
    results: list[Exchange] = []
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                due = start + offsets_s[i]
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                results.append(exchange(conn, kind, i, requests[i], due))
        finally:
            conn.close()

    _run_threads([worker] * connections)
    results.sort(key=lambda e: e.due)
    return results, start


def closed_loop(
    port: int,
    requests: list[bytes],
    *,
    kind: str,
    connections: int,
    seconds: float,
    min_samples: int = 0,
    max_seconds: float | None = None,
) -> tuple[list[Exchange], float, float]:
    """Keep ``connections`` busy cycling through ``requests``.

    Runs for ``seconds``, then on until ``min_samples`` answers are in
    (never past ``max_seconds``). Returns the exchanges and the
    window's start and end times.
    """
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    results: list[Exchange] = []
    start = time.perf_counter()
    soft_end = start + seconds
    hard_end = start + (max_seconds if max_seconds is not None else seconds)

    def worker() -> None:
        conn = Connection(port)
        try:
            while True:
                now = time.perf_counter()
                if now >= hard_end or (now >= soft_end and len(results) >= min_samples):
                    return
                with lock:
                    n = next(counter)
                item = n % len(requests)
                results.append(exchange(conn, kind, item, requests[item]))
        finally:
            conn.close()

    _run_threads([worker] * connections)
    end = time.perf_counter()
    results.sort(key=lambda e: e.sent)
    return results, start, end


def get(port: int, path: str) -> bytes:
    """One-off ``GET`` on a fresh connection; raises unless 200."""
    conn = Connection(port)
    try:
        status, body = conn.roundtrip(http_request("GET", path))
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
    return body


def get_json(port: int, path: str) -> dict:
    return json.loads(get(port, path))
