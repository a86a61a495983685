"""Golden key sets of the fleet's ``/models`` and ``/fleet`` documents.

Pinned for both slot executors. Per-slot ``dispatcher`` dicts differ by
mode on purpose: the worker pool names each slot's owning ``worker``
and has no shard-regroup counters (regrouping happens only in the
in-process dispatcher), while in-process slots keep
``shard_grouped_batches``/``shard_groups``.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.fleet import FleetDispatcher, FleetServer

SLOTS = {"HQ/f0", "HQ/f1", "LAB/f0", "LAB/f1"}
COMMON_DISPATCHER_KEYS = {
    "requests",
    "rows",
    "batches",
    "mean_batch_rows",
    "max_batch_rows",
    "sequential_requests",
    "errors",
}
DISPATCHER_KEYS = {
    0: COMMON_DISPATCHER_KEYS | {"shard_grouped_batches", "shard_groups"},
    1: COMMON_DISPATCHER_KEYS | {"worker"},
}
ROUTING_KEYS = {"requests", "rows", "forced_rows"}
FLEET_KEYS = {"requests", "rows", "forced_requests", "rejected_requests", "errors"}
WORKER_KEYS = {"worker", "pid", "alive", "slots", "jobs", "rows", "errors", "restarts"}
EXECUTOR_KEYS = {
    0: {"mode"},
    1: {"mode", "start_method", "placement", "shared_segments", "shared_bytes", "workers"},
}


@pytest.fixture(scope="module", params=[0, 1], ids=["workers0", "workers1"])
def served(request, fleet_registry, fleet_traffic):
    workers = request.param
    dispatcher = FleetDispatcher(
        fleet_registry, batch_window_ms=1.0, workers=workers
    )
    srv = FleetServer(fleet_registry, dispatcher, port=0)
    handle = srv.start_background()
    _get(srv, "POST", "/localize_batch", {"rssi": fleet_traffic[0][:8].tolist()})
    yield workers, srv
    handle.shutdown()


def _get(server, method, path, payload=None):
    if payload is not None:
        payload = {"api_version": 1, **payload}
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    conn.request(
        method, path, body=json.dumps(payload) if payload is not None else None
    )
    response = conn.getresponse()
    data = response.read()
    conn.close()
    assert response.status == 200, data
    return json.loads(data)


def _check_slot_table(slots, workers, extra=frozenset()):
    assert set(slots) == SLOTS
    for entry in slots.values():
        assert set(entry) == {"routing", "dispatcher"} | set(extra)
        assert set(entry["routing"]) == ROUTING_KEYS
        assert set(entry["dispatcher"]) == DISPATCHER_KEYS[workers]
        assert isinstance(entry["dispatcher"]["mean_batch_rows"], float)
    assert sum(e["dispatcher"]["rows"] for e in slots.values()) >= 8


def test_models_keys(served):
    workers, srv = served
    body = _get(srv, "GET", "/models")
    assert {"slots", "fleet", "live", "executor_mode", "workers"} <= set(body)
    assert set(body["fleet"]) == FLEET_KEYS
    _check_slot_table(body["slots"], workers, extra={"version", "digest"})
    assert len(body["workers"]) == workers
    for worker in body["workers"]:
        assert set(worker) == WORKER_KEYS


def test_fleet_dispatch_keys(served):
    workers, srv = served
    dispatch = _get(srv, "GET", "/fleet")["dispatch"]
    assert set(dispatch) == {"admission", "fleet", "executor", "slots"}
    assert set(dispatch["admission"]) == {"max_pending_rows", "pending_rows"}
    assert set(dispatch["fleet"]) == FLEET_KEYS
    assert set(dispatch["executor"]) == EXECUTOR_KEYS[workers]
    _check_slot_table(dispatch["slots"], workers)
