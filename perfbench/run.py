#!/usr/bin/env python3
"""End-to-end serving benchmark: real ``repro serve`` processes over real HTTP.

Run from the repository root::

    python3 perfbench/run.py --workload scan-single --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6 --trace 1

``--trace 0`` sets the server up several times from an empty model
directory (``setup_s`` is their median), drives the last one with the
workload's load from this process, checks every answer bit for bit
against an in-process reference, and reports the end-to-end metrics.
``--trace 1`` hosts the same server in this process instead and
reports the per-layer metrics (see ``traced.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Any wrong answer makes ``correct`` false
and the exit code 1. Provenance, the full report and, for traced
runs, every span go to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2

MAIN_PID = os.getpid()


def declared(trace: int) -> tuple[dict[str, str], dict[str, str]]:
    """``BENCHMARK.json``'s metric units for this mode, and each workload's why."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    return units, {w["name"]: w["why"] for w in bench["workloads"]}


def provenance(args, why: str) -> dict:
    """Where a result came from: commit, machine, numeric stack, seed."""
    import numpy as np
    from workloads import _source_digest

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else None
        else:
            commit = ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_digest": _source_digest(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "kernel_backend_env": os.environ.get("REPRO_KERNEL_BACKEND"),
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_untraced(wl, seed: int, seconds: float, run_dir: Path):
    """Cold set-ups, then load + verification on the last server."""
    import measure
    from procs import ServerProcess
    from workloads import check_reads

    setups: list[float] = []
    server = None
    for k in range(SETUPS):
        if server is not None:
            server.stop()
        server = ServerProcess(ROOT, run_dir / f"server{k}", wl.serve_args)
        try:
            setups.append(server.start())
        except BaseException:
            server.stop()
            raise
    try:
        ref = wl.reference(server.model_dir)
        plan = wl.plan(ref, seed, seconds, trace=False)
        wl.warm_up(server.port, plan)
        load = wl.drive(server.port, plan, seconds)
        rss_mb = server.peak_rss_mb()
        candidates = wl.candidates(ref, server.port, server.model_dir)
        mean_error_m, problems = wl.verify(server.port, ref, candidates)
    finally:
        server.stop()
    problems += check_reads(load.reads, plan.rows, candidates)
    problems += wl.check_writes(load.writes)
    ok_reads = [e for e in load.reads if e.ok]
    latencies_ms = [e.latency_s * 1e3 for e in ok_reads]
    p99, beyond = measure.tail_percentile(latencies_ms, 99)
    attempted = len(load.reads) + len(load.writes)
    failed = sum(not e.ok for e in load.reads + load.writes)
    rows_ok = sum(plan.rows[e.item].size for e in ok_reads)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": measure.percentile(latencies_ms, 50),
        "rows_per_s": rows_ok / load.window_s,
        "ok_share": (attempted - failed) / attempted,
        "mean_error_m": mean_error_m,
        "server_rss_mb": rss_mb,
    }
    info = {
        "setups_s": setups,
        "reads": len(load.reads),
        # Reported, not gated: its run-to-run spread exceeds any allowed bound.
        "latency_p99_ms": p99 if beyond >= measure.MIN_BEYOND else None,
        "reads_beyond_p99": beyond,
        "error_share": failed / attempted,
        "window_s": load.window_s,
        "writes": len(load.writes),
        "observe_p50_ms": measure.percentile(
            [e.rtt_s * 1e3 for e in load.writes if e.ok], 50
        ) if load.writes else None,
        "swap_lag_s": measure.percentile(load.swap_lags, 50) if load.writes else None,
        "swaps_seen": len(load.swap_lags),
        "loadgen_lag_p99_ms": measure.percentile(
            [(e.sent - e.due) * 1e3 for e in load.reads], 99
        ) if wl.open_loop else None,
        "failures": sorted({e.error or str(e.status) for e in load.reads + load.writes
                            if not e.ok})[:5],
    }
    return metrics, attempted, failed, problems, info, []


def run_traced_workload(wl, seed: int, seconds: float, run_dir: Path):
    import measure
    from traced import run_traced

    traced, problems, metrics, spans = run_traced(wl, seed, seconds, run_dir)
    attempted = len(traced.reads) + len(traced.writes)
    failed = sum(not e.ok for e in traced.reads + traced.writes)
    info = {
        "self_time_ms": {
            name: {"count": row["count"], "self_ms": row["self_s"] * 1e3,
                   "total_ms": row["total_s"] * 1e3}
            for name, row in sorted(measure.self_times(spans).items())
        },
        "reads": len(traced.reads),
        "writes": len(traced.writes),
    }
    return metrics, attempted, failed, problems, info, spans


def run_one(name: str, args) -> dict:
    from spans import write_spans
    from workloads import WORKLOADS

    out_dir = ROOT / ".bench_build" / "perfbench"
    run_dir = out_dir / "runs" / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    wl = WORKLOADS[name](ROOT, out_dir / "cache")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = run_traced_workload if args.trace else run_untraced
        metrics, attempted, failed, problems, info, spans = runner(
            wl, args.seed, args.seconds, run_dir
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units, whys = declared(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}"
        )
    report = {
        "provenance": provenance(args, whys[name]) | {"workload": name},
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "info": info,
    }
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if spans:
        write_spans(out_dir / "results" / f"{stem}.spans.jsonl", spans)
    print(f"== {name} (seed {args.seed}, trace {args.trace}): {whys[name]}")
    for key, value in report["provenance"].items():
        if key not in ("workload", "why"):
            print(f"   provenance.{key} = {value}")
    for key, entry in report["metrics"].items():
        print(f"   {key:32s} {entry['value']:14.4f} {entry['unit']}")
    for key, value in info.items():
        if key != "self_time_ms":
            print(f"   info.{key} = {value}")
    for span_name, row in info.get("self_time_ms", {}).items():
        print(f"   self-time {span_name:28s} n={row['count']:6d} "
              f"self={row['self_ms']:10.2f} ms total={row['total_ms']:10.2f} ms")
    for problem in problems:
        print(f"   MISMATCH: {problem}")
    return report


def _exit_on_signal(signum, frame):
    if os.getpid() != MAIN_PID:
        # A worker forked from this process (traced fleets) inherits the
        # handler; it ends at once, as with the default action.
        os._exit(128 + signum)
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    package = ROOT / "src" / "repro"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("scan-single", "fleet-gateway", "fleet-ingest", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (package / "__init__.py").exists():
        print(f"error: no program to benchmark: {package} is missing", file=sys.stderr)
        return 2
    # Anything the program under test puts in a temporary file stays in
    # the checkout, including when the traced run hosts it in-process.
    tmp = ROOT / ".bench_build" / "perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    # Byte-compile once up front so no set-up pays (or skips) compilation.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    from procs import adopt_orphans, stop_descendants

    # Every process started below is stopped and reaped before exit, on
    # every way out: normal return, exception, SIGINT or SIGTERM.
    adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_signal)
    names = (
        ["scan-single", "fleet-gateway", "fleet-ingest"]
        if args.workload == "all" else [args.workload]
    )
    try:
        reports = [run_one(name, args) for name in names]
    finally:
        stop_descendants()
    correct = all(r["correct"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['provenance']['workload']}/{k}": v
            for r in reports for k, v in r["metrics"].items()
        }
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
