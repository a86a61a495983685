"""A slot's counters survive its hot-swap, whichever executor serves it.

``/models`` and ``/metrics`` read the same counts: after a live refit
swaps ``HQ/f0``'s model, every per-slot ``dispatcher`` count in
``/models`` still equals its ``repro_dispatch_*{slot}`` series.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.fleet import FleetDispatcher, FleetServer
from repro.live import DriftPolicy, LiveManager
from repro.obs import parse_prometheus_text

#: ``/models`` dispatcher key -> the family it projects.
FAMILIES = {
    "requests": "repro_dispatch_requests_total",
    "rows": "repro_dispatch_rows_total",
    "batches": "repro_dispatch_batches_total",
    "max_batch_rows": "repro_dispatch_max_batch_rows",
    "sequential_requests": "repro_dispatch_sequential_requests_total",
    "errors": "repro_dispatch_errors_total",
}


def _request(port, method, path, payload=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    body = json.dumps({"api_version": 1, **payload}) if payload else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    assert response.status == 200, data
    return data.decode() if path == "/metrics" else json.loads(data)


def _series(text, family, slot):
    samples = parse_prometheus_text(text)[family]["samples"]
    return samples[(family, (("slot", slot),))]


@pytest.mark.parametrize("workers", [0, 1], ids=["workers0", "workers1"])
def test_counters_survive_hot_swap(live_fleet, labeled_traffic, workers):
    scans, xy = labeled_traffic
    dispatcher = FleetDispatcher(live_fleet, batch_window_ms=0.5, workers=workers)
    # A full 8-row buffer triggers the refit + swap on its own.
    live = LiveManager(dispatcher, policy=DriftPolicy(min_scans=8, max_scans=8))
    handle = FleetServer(live_fleet, dispatcher, port=0, live=live).start_background()
    try:
        port = handle.port
        pinned = {"building": "HQ", "floor": 0}
        _request(port, "POST", "/localize_batch", {"rssi": scans[:32].tolist(), **pinned})
        before = _request(port, "GET", "/models")["slots"]["HQ/f0"]
        _request(port, "POST", "/observe", {
            "rssi": scans[:8].tolist(), "locations": xy[:8].tolist(), **pinned,
        })
        deadline = time.monotonic() + 60
        while True:
            models = _request(port, "GET", "/models")
            if models["slots"]["HQ/f0"]["version"] > before["version"]:
                break
            assert time.monotonic() < deadline, "the refit never swapped HQ/f0"
            time.sleep(0.05)
        text = _request(port, "GET", "/metrics")
    finally:
        handle.shutdown()
    assert models["slots"]["HQ/f0"]["dispatcher"]["rows"] == 32
    for slot, entry in models["slots"].items():
        for key, family in FAMILIES.items():
            assert entry["dispatcher"][key] == _series(text, family, slot), (slot, key)
