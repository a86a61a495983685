"""Golden key sets of the single-model server's dispatcher sections.

``/healthz`` and ``/models`` both carry the micro-batching dispatcher's
counters. Operators and dashboards read these keys, so any change to
the set is a deliberate, reviewed break, not a refactoring side effect.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.serve import BatchingDispatcher, LocalizationServer

#: Every dispatcher dict the single-model server publishes.
DISPATCHER_KEYS = {
    "requests",
    "rows",
    "batches",
    "mean_batch_rows",
    "max_batch_rows",
    "sequential_requests",
    "errors",
    "shard_grouped_batches",
    "shard_groups",
}


@pytest.fixture(scope="module")
def server(knn_entry, serve_store, query_rows):
    dispatcher = BatchingDispatcher(knn_entry.localizer, batch_window_ms=1.0)
    srv = LocalizationServer(knn_entry, dispatcher, store=serve_store, port=0)
    handle = srv.start_background()
    _get(srv, "POST", "/localize_batch", {"rssi": query_rows[:4].tolist()})
    yield srv
    handle.shutdown()


def _get(server, method, path, payload=None):
    if payload is not None:
        payload = {"api_version": 1, **payload}
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    conn.request(
        method, path, body=json.dumps(payload) if payload is not None else None
    )
    response = conn.getresponse()
    data = response.read()
    conn.close()
    assert response.status == 200, data
    return json.loads(data)


@pytest.mark.parametrize("path", ["/healthz", "/models"])
def test_dispatcher_section_keys(server, path):
    section = _get(server, "GET", path)["dispatcher"]
    assert set(section) == DISPATCHER_KEYS
    assert section["rows"] >= 4
    assert isinstance(section["mean_batch_rows"], float)
