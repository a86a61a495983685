"""The metric catalog in ``docs/observability.md`` is the scraped truth.

Every family a served process exposes is documented, and every
documented family is exposed: the catalog tables (minus the load
generator's, which is reported rather than scraped) must name exactly
the families scraped from a single-model server plus a ``workers=1``
fleet server with live ingest, after one request of each kind.
"""

from __future__ import annotations

import http.client
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import FleetDispatcher, FleetServer
from repro.fleet.experiment import fleet_epoch_traffic
from repro.live import LiveManager
from repro.obs import parse_prometheus_text
from repro.serve import BatchingDispatcher, LocalizationServer, ModelStore

from ..live.conftest import make_fleet

CATALOG = Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def catalog_families() -> set[str]:
    """Family names in the catalog tables, skipping the load generator's."""
    section = CATALOG.read_text().split("## Metric catalog", 1)[1].split("\n## ", 1)[0]
    families: set[str] = set()
    skip = False
    previous = ""
    for line in section.splitlines():
        # A table belongs to the paragraph before it; a paragraph's
        # first line names the layer.
        if line.strip() and not line.startswith("|") and not previous.strip():
            skip = line.startswith("Load generator")
        previous = line
        match = re.match(r"\|\s*`(repro_\w+)`", line)
        if match and not skip:
            families.add(match.group(1))
    return families


def _request(port: int, method: str, path: str, payload: dict | None = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    body = json.dumps({"api_version": 1, **payload}) if payload else None
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    assert response.status == 200, data
    return data


def _scrape(server, calls) -> set[str]:
    handle = server.start_background()
    try:
        for method, path, payload in calls:
            _request(handle.port, method, path, payload)
        text = _request(handle.port, "GET", "/metrics").decode()
    finally:
        handle.shutdown()
    return set(parse_prometheus_text(text))


def single_model_families(tiny_suite) -> set[str]:
    entry = ModelStore().get_or_fit("KNN", tiny_suite, seed=0, fast=True)
    rows = np.vstack([ds.rssi for ds in tiny_suite.test_epochs])[:4]
    server = LocalizationServer(entry, BatchingDispatcher(entry.localizer), port=0)
    return _scrape(server, [
        ("POST", "/localize", {"rssi": rows[0].tolist()}),
        ("POST", "/localize_batch", {"rssi": rows.tolist()}),
        ("GET", "/healthz", None),
        ("GET", "/models", None),
    ])


def fleet_families(model_dir) -> set[str]:
    registry = make_fleet(model_dir)
    scans, true_b, true_f, xy = fleet_epoch_traffic(registry, 1)
    f0 = (true_b == 0) & (true_f == 0)
    dispatcher = FleetDispatcher(registry, batch_window_ms=0.5, workers=1)
    server = FleetServer(registry, dispatcher, port=0, live=LiveManager(dispatcher))
    return _scrape(server, [
        ("POST", "/localize", {"rssi": scans[0].tolist()}),
        ("POST", "/localize_batch", {"rssi": scans[:4].tolist()}),
        ("POST", "/observe", {
            "rssi": scans[f0][:2].tolist(), "locations": xy[f0][:2].tolist(),
            "building": "HQ", "floor": 0,
        }),
        ("GET", "/healthz", None),
        ("GET", "/models", None),
        ("GET", "/fleet", None),
    ])


#: The families every count in ``/healthz``, ``/models`` and ``/fleet``
#: is read from.
PROJECTED = {
    "repro_http_requests_total",
    *(
        f"repro_dispatch_{name}_total"
        for name in ("requests", "sequential_requests", "rows", "batches",
                     "errors", "shard_grouped_batches", "shard_groups")
    ),
    "repro_dispatch_max_batch_rows",
    *(
        f"repro_fleet_{name}_total"
        for name in ("requests", "rows", "forced_requests", "rejected", "errors")
    ),
    *(f"repro_routing_{name}_total" for name in ("requests", "rows", "forced_rows")),
    "repro_worker_jobs",
    "repro_worker_job_rows_total",
    "repro_worker_job_errors_total",
    "repro_worker_restarts",
    *(
        f"repro_live_{name}_total"
        for name in ("observations", "refits", "swaps", "refit_errors")
    ),
}


@pytest.fixture(scope="module")
def scraped(tiny_suite, tmp_path_factory):
    return single_model_families(tiny_suite) | fleet_families(
        tmp_path_factory.mktemp("models")
    )


def test_catalog_matches_scraped_families(scraped):
    documented = catalog_families()
    assert scraped - documented == set(), "families missing from the catalog"
    assert documented - scraped == set(), "catalog families no server exposes"


def test_every_json_count_has_a_family(scraped):
    assert PROJECTED - scraped == set()
