#!/usr/bin/env python
"""Benchmark observability overhead on the serving hot path.

The observability layer (PR 9) promises that its *always-on* cost —
labeled counters + latency histograms recorded on every coalesced
batch — stays within 5% of serve-path p50 latency. This bench proves it
at the dispatcher level, where the instrumentation actually runs:

1. **Bare rounds** — closed-loop clients drive a
   ``BatchingDispatcher`` handed ``MetricsRegistry(enabled=False)``:
   every recording site is a no-op.
2. **Metrics rounds** — the same load with a live
   ``MetricsRegistry`` recording every request and flush. This is the arm the
   <= 5% gate applies to: metrics are what production keeps on for
   every request.
3. **Traced rounds** — metrics *plus* a per-request ``Trace`` span
   recorder, the opt-in ``"trace": true`` debugging path. Reported for
   visibility but not gated: tracing is a per-request opt-in, and in a
   lock-stepped micro-benchmark every client's span bookkeeping lands
   serially inside everyone's critical path — the worst case by
   construction.
4. **Exposition check** — after the metrics rounds the registry must
   render Prometheus text that our own strict parser accepts and that
   contains the dispatch families.

Arms are interleaved (bare, metrics, traced, repeat) and each arm
reports its **median of per-round p50s**, so a background scheduling
blip lands on all arms instead of biasing one. The gate allows a small
absolute slack (default 0.05 ms) on top of the relative bar because at
sub-millisecond p50s a single timer quantum would otherwise dominate
the ratio.

Exit status is non-zero unless metrics-arm p50 <= bare p50 * 1.05
(+ slack) AND the exposition parses.

Run standalone (pytest does not collect ``bench_*`` files)::

    PYTHONPATH=src python benchmarks/bench_obs.py --quick
    PYTHONPATH=src python benchmarks/bench_obs.py --clients 32 --rounds 5
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
from _bench_common import write_json_report

from repro.datasets import SuiteConfig, generate_path_suite
from repro.obs import MetricsRegistry, Trace, new_request_id, parse_prometheus_text
from repro.serve import BatchingDispatcher, ModelStore

#: Dispatch families the instrumented exposition must contain.
EXPECTED_FAMILIES = (
    "repro_batch_compute_seconds",
    "repro_dispatch_rows_total",
    "repro_dispatch_batches_total",
)


async def _client(dispatcher, scans, latencies, *, traced: bool) -> None:
    """One closed-loop client; optionally attaches a Trace per request."""
    for scan in scans:
        trace = Trace(new_request_id()) if traced else None
        t0 = time.perf_counter()
        await dispatcher.localize(scan, trace=trace)
        latencies.append(time.perf_counter() - t0)


def run_round(
    localizer,
    scans_per_client,
    *,
    batch_window_ms: float,
    max_batch: int,
    metrics: bool,
    traced: bool,
) -> tuple[float, MetricsRegistry | None]:
    """Drive one load round; returns (p50_ms, registry-or-None)."""
    # The bare arm hands the dispatcher a disabled registry: every
    # recording site stays in place as a no-op, so the gate compares
    # instrumented against uninstrumented, not metrics against metrics.
    registry = MetricsRegistry(enabled=metrics)
    dispatcher = BatchingDispatcher(
        localizer, batch_window_ms=batch_window_ms, max_batch=max_batch,
        metrics=registry,
    )
    latencies: list[float] = []

    async def go():
        await asyncio.gather(
            *[
                _client(dispatcher, scans, latencies, traced=traced)
                for scans in scans_per_client
            ]
        )

    try:
        asyncio.run(go())
    finally:
        dispatcher.close()
    return (
        float(np.percentile(np.array(latencies), 50) * 1e3),
        registry if metrics else None,
    )


def check_exposition(registry: MetricsRegistry) -> bool:
    """The instrumented registry must render valid, populated text."""
    text = registry.snapshot().to_text()
    try:
        families = parse_prometheus_text(text)
    except ValueError as exc:
        print(f"exposition INVALID: {exc}")
        return False
    missing = [name for name in EXPECTED_FAMILIES if name not in families]
    if missing:
        print(f"exposition missing families: {missing}")
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale: tiny suite"
    )
    parser.add_argument("--framework", default="KNN")
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument(
        "--requests", type=int, default=0,
        help="requests per client per round (0 = auto: 30 quick, 60 full)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="interleaved bare/metrics/traced round triples (median of p50s)",
    )
    parser.add_argument("--batch-window-ms", type=float, default=0.5)
    parser.add_argument("--max-batch", type=int, default=256)
    parser.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="relative p50 overhead budget for metrics (default 5%%)",
    )
    parser.add_argument(
        "--abs-slack-ms", type=float, default=0.05,
        help=(
            "absolute p50 slack added to the gate so timer quanta cannot "
            "fail sub-millisecond rounds (default 0.05 ms)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write gate metrics as JSON (CI regression harness)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        suite = generate_path_suite(
            "office",
            args.seed,
            config=SuiteConfig(n_aps=24, fpr=4, train_fpr=3),
            n_cis=6,
        )
    else:
        suite = generate_path_suite("office", args.seed)
    n_requests = args.requests or (30 if args.quick else 60)

    store = ModelStore()
    entry = store.get_or_fit(args.framework, suite, seed=args.seed, fast=True)
    print(suite.describe())
    print(
        f"\nmodel: {entry.key.framework} (fit {entry.fit_seconds:.2f}s); "
        f"load: {args.clients} clients x {n_requests} requests x "
        f"{args.rounds} interleaved round triples"
    )

    rng = np.random.default_rng(args.seed)
    pool = np.vstack([ds.rssi for ds in suite.test_epochs])
    scans_per_client = [
        pool[rng.integers(0, pool.shape[0], size=n_requests)]
        for _ in range(args.clients)
    ]

    def run(metrics: bool, traced: bool):
        return run_round(
            entry.localizer,
            scans_per_client,
            batch_window_ms=args.batch_window_ms,
            max_batch=args.max_batch,
            metrics=metrics,
            traced=traced,
        )

    # Warm-up triple (numba/caches/allocator), discarded.
    run(False, False)
    run(True, False)
    run(True, True)

    bare_p50s: list[float] = []
    metrics_p50s: list[float] = []
    traced_p50s: list[float] = []
    registry = None
    print(f"\n{'round':<8} {'bare p50':>10} {'metrics p50':>12} {'traced p50':>12}")
    for i in range(args.rounds):
        bare, _ = run(False, False)
        inst, registry = run(True, False)
        traced, _ = run(True, True)
        bare_p50s.append(bare)
        metrics_p50s.append(inst)
        traced_p50s.append(traced)
        print(f"{i:<8} {bare:>8.3f}ms {inst:>10.3f}ms {traced:>10.3f}ms")

    med_bare = float(np.median(bare_p50s))
    med_metrics = float(np.median(metrics_p50s))
    med_traced = float(np.median(traced_p50s))
    overhead = med_metrics / med_bare - 1.0 if med_bare > 0 else 0.0
    traced_overhead = med_traced / med_bare - 1.0 if med_bare > 0 else 0.0
    # Higher-is-better for the regression checker: 1.0 = free
    # instrumentation, values above 1 mean the metrics arm won the
    # coin flip on a given machine.
    p50_ratio = med_bare / med_metrics if med_metrics > 0 else 1.0
    overhead_ok = (
        med_metrics <= med_bare * (1.0 + args.max_overhead) + args.abs_slack_ms
    )
    exposition_valid = registry is not None and check_exposition(registry)

    print(
        f"\nmedian p50: bare {med_bare:.3f}ms, metrics {med_metrics:.3f}ms "
        f"({overhead * 100:+.1f}%, budget {args.max_overhead * 100:.0f}% + "
        f"{args.abs_slack_ms}ms slack), traced {med_traced:.3f}ms "
        f"({traced_overhead * 100:+.1f}%, opt-in — not gated)"
    )
    print(f"exposition valid: {exposition_valid}")
    ok = overhead_ok and exposition_valid
    print(f"{'PASS' if ok else 'FAIL'}: observability overhead/exposition checks")
    if args.json:
        write_json_report(
            args.json,
            bench="obs",
            quick=args.quick,
            metrics={
                "p50_ratio": round(p50_ratio, 3),
                "overhead_ok": overhead_ok,
                "exposition_valid": exposition_valid,
            },
            info={
                "framework": args.framework,
                "clients": args.clients,
                "requests_per_client": n_requests,
                "rounds": args.rounds,
                "bare_p50_ms": round(med_bare, 3),
                "metrics_p50_ms": round(med_metrics, 3),
                "traced_p50_ms": round(med_traced, 3),
                "traced_overhead": round(traced_overhead, 4),
            },
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
