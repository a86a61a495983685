"""The traced run: per-layer attribution for one workload.

The server is hosted in the benchmark process (``start_background()``)
so the benchmark's wrappers (:mod:`spans`) can time calls into each
layer's public functions; nothing in the program under test changes.
The numbers come from four sources:

1. the server's own opt-in ``"trace": true`` spans on every traced
   request (queue, compute, admission, routing, scatter);
2. ``/metrics`` and ``/healthz`` deltas across the traced window;
3. benchmark spans around protocol decode/encode, routing, live
   ingest, drift scoring and refits while the traced load runs, and
   around suite generation, fitting and spawning during set-up;
4. direct timed calls after the load: ``predict_batched`` (with the
   kernel backend's distance call wrapped), ``ScanRouter.route``, and
   a ``ReproClient`` pass against raw pre-encoded requests.

An untraced pass on the same in-process server runs first; the traced
pass's p50 over it is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import measure
import numpy as np
from httpload import Connection, exchange, get, get_json, http_request
from spans import Tracer
from workloads import (
    FLEET_SPEC,
    FleetIngest,
    PoolRef,
    ScanSingle,
    Workload,
    check_reads,
)

import repro.fleet.registry as fleet_registry_module
import repro.fleet.server as fleet_server_module
import repro.live.manager as live_manager_module
import repro.serve.server as serve_server_module
from repro.api import FleetSpec, LocalizerSpec, ReproClient, ServeSpec
from repro.datasets import generate_path_suite
from repro.fleet.router import ScanRouter
from repro.kernels import get_backend
from repro.live import ObservationBuffer
from repro.serve.protocol import API_VERSION, RequestContext
from repro.serve.store import ModelStore

LOCALIZE = ("/localize", "/localize_batch")


def _wait_healthy(port: int) -> None:
    deadline = time.monotonic() + 60
    while True:
        try:
            get_json(port, "/healthz")
            return
        except (OSError, RuntimeError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def build_inprocess(wl: Workload, tracer: Tracer, model_dir: Path):
    """Set up ``wl``'s server in this process; returns ``(handle, setup)``.

    Mirrors what ``repro serve`` builds for the workload's flags, with
    set-up phases timed: suite generation, fitting (every
    ``ModelStore.get_or_fit``) and spawning (dispatcher, workers and
    socket up to the first ``/healthz`` answer).
    """
    tracer.wrap(ModelStore, "get_or_fit", "setup.fit")
    tracer.wrap(fleet_registry_module, "generate_multifloor_suite", "setup.suite_gen")
    try:
        t0 = time.perf_counter()
        if isinstance(wl, ScanSingle):
            with tracer.span("setup.suite_gen"):
                suite = generate_path_suite("office", 0)
            t0 = time.perf_counter()
            server = ServeSpec(
                LocalizerSpec("STONE", suite_name="office", fast=True),
                port=0, model_dir=str(model_dir),
            ).build(suite)
        else:
            knobs: dict = {"workers": 1 if wl.name == "fleet-gateway" else 0}
            if isinstance(wl, FleetIngest):
                knobs.update(drift_threshold_m=wl.DRIFT_THRESHOLD_M,
                             live_min_scans=wl.MIN_SCANS, live_max_scans=wl.MIN_SCANS)
            spec = FleetSpec.from_string(
                FLEET_SPEC, framework="KNN", fast=True, port=0,
                model_dir=str(model_dir), **knobs,
            )
            registry = spec.build_registry()
            t0 = time.perf_counter()
            server = spec.build_server(registry)
        handle = server.start_background()
        _wait_healthy(handle.port)
        ready = time.perf_counter()
    finally:
        tracer.restore()
    fit_s = sum(s["end"] - s["start"] for s in tracer.named("setup.fit"))
    fit_after_t0 = sum(
        s["end"] - s["start"] for s in tracer.named("setup.fit") if s["start"] >= t0
    )
    setup = {
        "setup.suite_gen_s": sum(
            s["end"] - s["start"] for s in tracer.named("setup.suite_gen")
        ),
        "setup.fit_s": fit_s,
        "setup.spawn_s": (ready - t0) - fit_after_t0,
    }
    return handle, setup


def install_layer_wrappers(tracer: Tracer) -> None:
    """Spans around the in-process serving layers during the traced load."""

    def note_request(args, result, attrs):
        tracer.request_id.set(args[0].request_id)

    def note_rows(args, result, attrs):
        attrs["rows"] = int(result.shape[0])

    tracer.wrap(RequestContext, "json", "protocol.decode", on_return=note_request)
    for module in (serve_server_module, fleet_server_module):
        for fn in ("parse_localize", "parse_localize_batch"):
            tracer.wrap(module, fn, "protocol.parse", on_return=note_rows)
    tracer.wrap(serve_server_module, "encode_json", "protocol.encode")
    tracer.wrap(ObservationBuffer, "append", "live.append")
    tracer.wrap(live_manager_module, "drift_score", "live.drift_score")
    tracer.wrap(live_manager_module, "refit_slot", "live.refit")


def _slot_batches(ref: PoolRef, rows: list[np.ndarray]):
    """``(localizer, block)`` per slot group of each request, as the server splits it."""
    if ref.registry is None:
        for idx in rows:
            yield ref.localizer, ref.pool[idx]
        return
    router = ScanRouter(ref.registry)
    for idx in rows:
        scans = ref.pool[idx]
        decision = router.route(scans)
        for (b, floor), group in router.group_rows(decision).items():
            deployment = ref.registry.buildings[b]
            yield deployment.slots[floor].entry.localizer, deployment.block(scans[group])


def micro_pass(ref: PoolRef, rows: list[np.ndarray], tracer: Tracer) -> dict:
    """Timed ``predict_batched`` (+ distance kernel) and routing per 1000 rows."""
    sample = rows[:64]
    localizer = ref.localizer or ref.registry.slots()[0].entry.localizer
    backend_cls = type(get_backend(localizer.kernel_backend))

    def note_queries(args, result, attrs):
        attrs["rows"] = int(args[1].shape[0])

    tracer.wrap(backend_cls, "sq_distances", "kernels.sq_distances", on_return=note_queries)
    batches = list(_slot_batches(ref, sample))
    predict_rows = sum(block.shape[0] for _, block in batches)
    try:
        with tracer.span("model.predict", rows=predict_rows):
            for loc, block in batches:
                loc.predict_batched(block)
    finally:
        tracer.restore()
    predict = tracer.named("model.predict")[-1]
    kernel = tracer.named("kernels.sq_distances")
    out = {
        "model.predict_ms_per_krow": _per_krow(
            predict["end"] - predict["start"], predict_rows
        ),
        "kernels.distance_ms_per_krow": _per_krow(
            sum(s["end"] - s["start"] for s in kernel), sum(s["rows"] for s in kernel)
        ),
        "router.ms_per_krow": 0.0,
    }
    if ref.registry is not None:
        router = ScanRouter(ref.registry)
        with tracer.span("router.route", rows=sum(idx.size for idx in sample)):
            for idx in sample:
                router.route(ref.pool[idx])
        span = tracer.named("router.route")[-1]
        out["router.ms_per_krow"] = _per_krow(span["end"] - span["start"], span["rows"])
    return out


def _per_krow(seconds: float, rows: int) -> float:
    return seconds * 1e3 / rows * 1000 if rows else 0.0


def client_pass(port: int, ref: PoolRef, rows: list[np.ndarray], rounds: int = 40) -> dict:
    """What ``ReproClient`` adds over the wire for this workload's requests.

    Interleaves ``ReproClient.localize_batch`` with a raw request of the
    identical body; client cost = client time - raw round trip, split
    into decode (parsing the raw answer as the client does) and the
    rest (encoding the request).
    """
    client = ReproClient("127.0.0.1", port, max_retries=0)
    conn = Connection(port)
    total, wire, decode = [], [], []
    try:
        for i in range(rounds):
            scans = ref.pool[rows[i % len(rows)]]
            # The exact bytes ReproClient sends (default json separators).
            body = json.dumps({"api_version": API_VERSION, "rssi": scans.tolist()})
            ex = exchange(conn, "client", i, http_request(
                "POST", "/localize_batch", body.encode()
            ))
            t0 = time.perf_counter()
            client.localize_batch(scans)
            total.append(time.perf_counter() - t0)
            if not ex.ok:
                raise RuntimeError(f"raw request failed: {ex.status}")
            wire.append(ex.rtt_s)
            t0 = time.perf_counter()
            np.asarray(json.loads(ex.body)["locations"], dtype=np.float64)
            decode.append(time.perf_counter() - t0)
    finally:
        client.close()
        conn.close()
    decode_ms = float(np.median(decode)) * 1e3
    return {
        "client.decode_ms": decode_ms,
        "client.encode_ms": (float(np.median(total)) - float(np.median(wire))) * 1e3
        - decode_ms,
    }


def _server_traces(reads) -> list[tuple[float, dict]]:
    """``(client RTT ms, server trace)`` for every answered traced read."""
    return [(ex.rtt_s * 1e3, ex.json()["trace"]) for ex in reads if ex.ok]


def _unattributed_ms(trace: dict) -> float:
    stages = [s["stage"] for s in trace["spans"]]
    # ``scatter`` encloses the per-slot queue + compute spans; count it
    # in their place so parallel slots are not double-counted.
    leaves = [
        s["ms"] for s in trace["spans"]
        if not ("scatter" in stages and s["stage"] in ("queue", "compute"))
    ]
    return trace["total_ms"] - sum(leaves)


def _stage_median(traces: list[dict], stage: str) -> float:
    per_request = [
        np.mean([s["ms"] for s in t["spans"] if s["stage"] == stage])
        for t in traces
        if any(s["stage"] == stage for s in t["spans"])
    ]
    return measure.percentile(per_request, 50)


def _durations_ms(spans: list[dict]) -> list[float]:
    return [(s["end"] - s["start"]) * 1e3 for s in spans]


def layer_metrics(
    *, wl: Workload, base, traced, before, after, health_before, health_after,
    load_tracer: Tracer, setup: dict, micro: dict, client: dict,
) -> dict:
    """Every per-layer metric; a layer the workload does not use reads 0."""
    d = measure.delta(before, after)

    def on_localize(labels: dict) -> bool:
        return labels.get("endpoint") in LOCALIZE

    pairs = _server_traces(traced.reads)
    traces = [t for _, t in pairs]
    flushes = measure.total(d, "repro_dispatch_batches_total")
    worker_predict_s = measure.total(d, "repro_worker_predict_seconds_sum")
    compute_s = measure.total(d, "repro_batch_compute_seconds_sum")
    decode = load_tracer.named("protocol.decode") + load_tracer.named("protocol.parse")
    parse_rows = sum(s["rows"] for s in load_tracer.named("protocol.parse"))
    base_p50 = measure.percentile([e.latency_s for e in base.reads if e.ok], 50)
    traced_p50 = measure.percentile([e.latency_s for e in traced.reads if e.ok], 50)
    lags = [(e.sent - e.due) * 1e3 for e in (traced.reads if wl.open_loop else traced.writes)]
    workers = health_after.get("workers", {})
    restarts = workers.get("restarts", 0) - health_before.get("workers", {}).get("restarts", 0)
    metrics = {
        "http.outside_ms": measure.percentile([rtt - t["total_ms"] for rtt, t in pairs], 50),
        "http.server_ms": 1e3 * measure.histogram_mean(
            d, "repro_http_request_seconds", on_localize
        ),
        "protocol.decode_ms_per_krow": _per_krow(
            sum(s["end"] - s["start"] for s in decode), parse_rows
        ),
        "protocol.encode_ms": measure.percentile(
            _durations_ms(load_tracer.named("protocol.encode")), 50
        ),
        "dispatch.queue_ms": _stage_median(traces, "queue"),
        "dispatch.rows_per_flush": (
            measure.total(d, "repro_dispatch_rows_total") / flushes if flushes else 0.0
        ),
        "dispatch.flushes": flushes,
        "admission.ms": _stage_median(traces, "admission"),
        "admission.rejected": measure.total(d, "repro_fleet_rejected_total"),
        "router.ms_per_request": 1e3 * measure.histogram_mean(d, "repro_routing_seconds"),
        "router.ms_per_krow": micro["router.ms_per_krow"],
        "worker.hop_ms": (
            1e3 * (compute_s - worker_predict_s) / flushes
            if worker_predict_s and flushes else 0.0
        ),
        "worker.restarts": float(restarts),
        "model.predict_ms_per_krow": micro["model.predict_ms_per_krow"],
        "model.busy_share": (worker_predict_s or compute_s) / traced.window_s,
        "kernels.distance_ms_per_krow": micro["kernels.distance_ms_per_krow"],
        "trace.unattributed_ms": measure.percentile(
            [_unattributed_ms(t) for t in traces], 50
        ),
        "trace.overhead_pct": (traced_p50 / base_p50 - 1.0) * 100 if base_p50 else 0.0,
        "live.append_ms": measure.percentile(
            _durations_ms(load_tracer.named("live.append")), 50
        ),
        "live.drift_score_ms": measure.percentile(
            _durations_ms(load_tracer.named("live.drift_score")), 50
        ),
        "live.refit_s": measure.percentile(
            _durations_ms(load_tracer.named("live.refit")), 50
        ) / 1e3,
        "live.swap_s": measure.histogram_mean(d, "repro_live_swap_seconds"),
        "live.swaps": measure.total(d, "repro_live_swaps_total"),
        "live.observe_p50_ms": measure.percentile(
            [e.rtt_s * 1e3 for e in traced.writes if e.ok], 50
        ),
        "live.swap_lag_s": measure.percentile(traced.swap_lags, 50),
        "loadgen.lag_p99_ms": measure.percentile(lags, 99),
        **setup,
        **client,
    }
    return metrics


def scrape(port: int) -> measure.Samples:
    return measure.scrape_samples(get(port, "/metrics").decode())


def run_traced(wl: Workload, seed: int, seconds: float, run_dir: Path):
    """Set up in-process, run untraced then traced passes; returns the outcome."""
    setup_tracer, load_tracer, micro_tracer = Tracer(), Tracer(), Tracer()
    # Per-layer figures are medians and sums; no load phase needs a p99 here.
    wl.min_reads = 0
    model_dir = run_dir / "models"
    handle, setup = build_inprocess(wl, setup_tracer, model_dir)
    try:
        port = handle.port
        ref = wl.reference(model_dir)
        plain = wl.plan(ref, seed, seconds / 2, trace=False)
        traced_plan = wl.plan(ref, seed, seconds, trace=True)
        wl.warm_up(port, plain)
        base = wl.drive(port, plain, seconds / 2)
        before, health_before = scrape(port), get_json(port, "/healthz")
        install_layer_wrappers(load_tracer)
        try:
            traced = wl.drive(port, traced_plan, seconds)
        finally:
            load_tracer.restore()
        after, health_after = scrape(port), get_json(port, "/healthz")
        micro = micro_pass(ref, traced_plan.rows, micro_tracer)
        client = client_pass(port, ref, traced_plan.rows)
        candidates = wl.candidates(ref, port, model_dir)
    finally:
        handle.shutdown()
    problems = check_reads(base.reads, plain.rows, candidates)
    problems += check_reads(traced.reads, traced_plan.rows, candidates)
    metrics = layer_metrics(
        wl=wl, base=base, traced=traced, before=before, after=after,
        health_before=health_before, health_after=health_after,
        load_tracer=load_tracer, setup=setup, micro=micro, client=client,
    )
    spans = [
        {**s, "phase": phase}
        for phase, tracer in (("setup", setup_tracer), ("load", load_tracer),
                              ("micro", micro_tracer))
        for s in tracer.spans
    ]
    return traced, problems, metrics, spans
