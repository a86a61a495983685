"""Load-test the serving layer end-to-end over HTTP.

Starts a `repro.serve` server in-process (background thread), fits a
KNN localizer on a small office deployment, then fires concurrent
threads of single-scan ``POST /localize`` requests at it — the traffic
shape of many phones sharing one deployed localizer. Each thread is one
:class:`repro.api.ReproClient` on a kept-alive connection (wire
protocol v1, typed errors, automatic 429 backoff — no hand-rolled
HTTP). Prints p50/p99 latency, throughput, and the dispatcher's
coalescing counters, then shuts the server down cleanly.

    python examples/serving_load.py
    python examples/serving_load.py --threads 32 --requests 50 --window-ms 2
"""

import argparse
import threading
import time

import numpy as np

from repro.api import LocalizerSpec, ReproClient, ReproError, ServeSpec
from repro.datasets import SuiteConfig, generate_path_suite


def fire_requests(port, scans, latencies, errors):
    """One client thread: POST each scan, record wall latency.

    The client keeps its connection alive across the whole scan
    sequence, so each request pays inference + framing, not TCP setup;
    dropped connections and 429 backoff are the client's problem, not
    ours — anything it still raises is recorded as an error.
    """
    with ReproClient(port=port) as client:
        for scan in scans:
            t0 = time.perf_counter()
            try:
                client.localize(scan)
            except ReproError as exc:
                errors.append(str(exc))
                continue
            latencies.append(time.perf_counter() - t0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--requests", type=int, default=25, help="per thread")
    parser.add_argument("--window-ms", type=float, default=2.0)
    parser.add_argument("--framework", default="KNN")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # A small office deployment served through the public spec surface.
    suite = generate_path_suite(
        "office",
        seed=args.seed,
        config=SuiteConfig(n_aps=30, fpr=4, train_fpr=3),
        n_cis=6,
    )
    spec = ServeSpec(
        localizer=LocalizerSpec(
            framework=args.framework,
            suite_name="office",
            fast=True,
            seed=args.seed,
        ),
        port=0,
        batch_window_ms=args.window_ms,
        max_batch=256,
    )
    server = spec.build(suite)
    entry = server.entry
    print(f"fitted {entry.key.framework} on {suite.name} "
          f"({entry.fit_seconds:.2f}s, {entry.n_aps} APs)")

    handle = server.start_background()
    print(f"serving on http://127.0.0.1:{handle.port} "
          f"(window {args.window_ms:g} ms)\n")

    # Synthetic load: every thread replays real test-epoch scans.
    rng = np.random.default_rng(args.seed)
    pool = np.vstack([ds.rssi for ds in suite.test_epochs])
    latencies: list = []
    errors: list = []
    threads = []
    t0 = time.perf_counter()
    for _ in range(args.threads):
        scans = pool[rng.integers(0, pool.shape[0], size=args.requests)]
        thread = threading.Thread(
            target=fire_requests, args=(handle.port, scans, latencies, errors)
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0

    total = args.threads * args.requests
    lat = np.array(latencies) * 1e3
    print(f"{total} requests over {wall:.2f}s from {args.threads} threads")
    print(f"throughput: {total / wall:7.0f} req/s   errors: {len(errors)}")
    print(f"latency:    p50 {np.percentile(lat, 50):.2f} ms   "
          f"p99 {np.percentile(lat, 99):.2f} ms")
    print(f"dispatcher: {server.dispatcher.stats()}")

    handle.shutdown()
    print("server shut down cleanly")


if __name__ == "__main__":
    main()
