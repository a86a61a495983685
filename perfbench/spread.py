#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric over several seeds.

    python3 perfbench/spread.py --workload fleet-gateway --seeds 1-5 --seconds 5

Runs ``run.py`` once per seed and prints, per metric, the median and
the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's
bound in ``BENCHMARK.json``. A benchmark is steady when every spread
except ``setup_s``'s is well under its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-5"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--info", nargs="*", default=[],
        help="numeric info.* fields of the run report to include",
    )
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        report = json.loads((ROOT / ".bench_build" / "perfbench" / "results" / (
            f"{args.workload}-seed{seed}-trace0.json")).read_text())
        for name in args.info:
            values.setdefault(f"info.{name}", []).append(report["info"][name])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:18s} median={med:12.4f} spread={spread:7.4f} "
              f"bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
