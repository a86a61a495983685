"""The three serving workloads: what each sends, and what a right answer is.

Every workload replays held-out traffic (test months the models never
trained on), so each answer has a ground-truth position, and checks
each HTTP answer bit for bit against an in-process reference built
from the artifacts the server itself wrote to its model directory.

===============  ============================================  ==============================
workload         server                                        traffic
===============  ============================================  ==============================
scan-single      ``serve office --framework STONE --fast``     open loop: Poisson one-row
                 (2 ms batch window, one inference thread)     ``/localize`` at a fixed rate
fleet-gateway    ``serve --fleet HQ:2,LAB:2 --framework KNN    closed loop: one connection of
                 --fast --workers 1``                          64-row Zipf ``/localize_batch``
fleet-ingest     same fleet, ``--workers 0`` + drift knobs     closed-loop 16-row reads of the
                                                               drifted last month beside
                                                               scheduled ``/observe`` writes
===============  ============================================  ==============================

Why each exists is recorded in ``BENCHMARK.json`` (``workloads[].why``).
"""

from __future__ import annotations

import hashlib
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from httpload import (
    Connection,
    Exchange,
    closed_loop,
    encode_request,
    exchange,
    get_json,
    open_loop,
)
from measure import min_samples_for

from repro.datasets import generate_path_suite
from repro.eval.metrics import localization_errors
from repro.fleet.experiment import fleet_epoch_traffic
from repro.fleet.registry import FleetRegistry
from repro.fleet.router import RoutingDecision, ScanRouter
from repro.serve.protocol import API_VERSION, as_scan_matrix
from repro.serve.store import ModelStore
from repro.synth.loadgen import TrafficPool

#: The fleet both fleet workloads serve.
FLEET_SPEC = "HQ:2,LAB:2"
#: Latency tail reported as ``latency_p99_ms``; loads collect enough samples.
TAIL_Q = 99.0
MIN_READS = min_samples_for(TAIL_Q)


def _source_digest(root: Path) -> str:
    """Digest of the program's sources: cached inputs are reused only for it."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cached(cache_dir: Path, name: str, build):
    """``build()``'s result, pickled under ``cache_dir`` for later runs.

    Only the benchmark's own inputs (generated suites) are cached; they
    are deterministic for a given source tree, so the cache is keyed
    by the source digest and never holds anything the server made.
    """
    path = cache_dir / f"{name}.pkl"
    if path.exists():
        with path.open("rb") as fh:
            return pickle.load(fh)
    value = build()
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with tmp.open("wb") as fh:
        pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return value


def _fleet_suites() -> list[tuple[str, object]]:
    """The fleet's generated building suites, exactly as ``serve --fleet`` makes them."""
    from repro.api import FleetSpec

    registry = FleetSpec.from_string(FLEET_SPEC, framework="KNN", fast=True).build_registry()
    return [(b.name, b.suite) for b in registry.buildings]


def fleet_registry(model_dir: Path, suites) -> FleetRegistry:
    """A registry warm-loaded from the server's model directory."""
    registry = FleetRegistry(store=ModelStore(model_dir))
    for name, suite in suites:
        registry.add_building(name, suite, framework="KNN", seed=0, fast=True)
    fitted = [s.slot.label for s in registry.slots() if s.entry.source != "disk"]
    if fitted:
        raise RuntimeError(f"server wrote no artifact for slots {fitted}")
    return registry


# -- plans and outcomes ----------------------------------------------------------


@dataclass
class Plan:
    """The requests of one load phase, encoded before it starts."""

    #: Row indices into the reference pool, one array per read request.
    rows: list[np.ndarray]
    bodies: list[bytes]
    #: Open loop only: due offsets (s) from the window start.
    offsets: list[float] | None = None
    #: fleet-ingest only: ``/observe`` bodies.
    observe_bodies: list[bytes] = field(default_factory=list)


@dataclass
class Load:
    """What one load phase measured."""

    reads: list[Exchange]
    start: float
    end: float
    writes: list[Exchange] = field(default_factory=list)
    #: Seconds from a trigger-crossing ``/observe`` to ``/models`` showing the swap.
    swap_lags: list[float] = field(default_factory=list)

    @property
    def window_s(self) -> float:
        return self.end - self.start


def _read_body(path: str, rows: np.ndarray, *, trace: bool, single: bool) -> bytes:
    payload: dict = {
        "api_version": API_VERSION,
        "rssi": rows[0].tolist() if single else rows.tolist(),
    }
    if trace:
        payload["trace"] = True
    return encode_request("POST", path, payload)


def answer_coords(ex: Exchange) -> np.ndarray:
    """The ``(n, 2)`` coordinates of a ``/localize`` or ``/localize_batch`` answer."""
    answer = ex.json()
    if "location" in answer:
        return np.asarray([answer["location"]], dtype=np.float64)
    return np.asarray(answer["locations"], dtype=np.float64)


def check_reads(
    reads: list[Exchange], rows: list[np.ndarray], candidates: list[np.ndarray]
) -> list[str]:
    """Check every answered read against the reference, in order.

    ``candidates`` are full-pool reference answers, one per model
    version in serving order. A read must equal some version no older
    than the one the previous read matched: answers may move from the
    old model to the new one, never back, never a mix.
    """
    problems: list[str] = []
    version = 0
    for ex in reads:
        if not ex.ok:
            continue
        got = answer_coords(ex)
        idx = rows[ex.item]
        match = next(
            (v for v in range(version, len(candidates))
             if got.shape == (idx.size, 2) and np.array_equal(got, candidates[v][idx])),
            None,
        )
        if match is None:
            problems.append(
                f"read {ex.item}: answer differs from the reference "
                f"(versions {version}..{len(candidates) - 1})"
            )
            if len(problems) >= 5:
                break
            continue
        version = match
    return problems


# -- workloads ------------------------------------------------------------------


class Workload:
    name: str
    serve_args: list[str]
    #: Latency of the reads runs from the due time (open loop) or send time.
    open_loop = False
    #: Reads a load phase collects at least, so its p99 is supported.
    min_reads = MIN_READS

    def __init__(self, root: Path, cache_dir: Path) -> None:
        self.root = root
        self.cache_dir = cache_dir / _source_digest(root)

    def reference(self, model_dir: Path):
        raise NotImplementedError

    def plan(self, ref, seed: int, seconds: float, *, trace: bool) -> Plan:
        raise NotImplementedError

    def drive(self, port: int, plan: Plan, seconds: float) -> Load:
        raise NotImplementedError

    def candidates(self, ref, port: int, model_dir: Path) -> list[np.ndarray]:
        """Reference answers per model version, after the load."""
        return [ref.expected]

    def check_writes(self, writes: list[Exchange]) -> list[str]:
        """Problems with answered writes (only fleet-ingest writes)."""
        return []

    def verify(self, port: int, ref, candidates) -> tuple[float, list[str]]:
        """Send the whole held-out pool once; ``(mean_error_m, problems)``."""
        conn = Connection(port)
        try:
            ex = exchange(conn, "verify", 0, _read_body(
                "/localize_batch", ref.pool, trace=False, single=False
            ))
        finally:
            conn.close()
        if not ex.ok:
            return 0.0, [f"verification pass answered {ex.status} {ex.error or ''}"]
        got = answer_coords(ex)
        expected = candidates[-1]
        problems = [] if np.array_equal(got, expected) else [
            "verification pass differs from the reference"
        ]
        return float(np.mean(localization_errors(got, ref.truth))), problems

    def warm_up(self, port: int, plan: Plan) -> None:
        """Answer a few requests first so lazy set-up is not timed."""
        conn = Connection(port)
        try:
            for body in plan.bodies[:20]:
                ex = exchange(conn, "warm-up", 0, body)
                if not ex.ok:
                    raise RuntimeError(f"warm-up request failed: {ex.status} {ex.error}")
        finally:
            conn.close()


@dataclass
class PoolRef:
    """The held-out pool and its reference answers."""

    pool: np.ndarray
    truth: np.ndarray
    expected: np.ndarray
    registry: FleetRegistry | None = None
    localizer: object | None = None
    #: fleet-ingest: pool rows the observed slot answers.
    slot_rows: np.ndarray | None = None
    #: fleet-ingest: pool rows sent as labeled ``/observe`` writes.
    observe_rows: np.ndarray | None = None
    #: Fleets: ``(month, first pool row)`` of each held-out month.
    epochs: list = field(default_factory=list)
    #: Fleets: the reference routing of every pool row.
    decision: RoutingDecision | None = None


class ScanSingle(Workload):
    name = "scan-single"
    serve_args = ["office", "--framework", "STONE", "--fast"]
    open_loop = True
    #: Offered load: well below capacity (two connections of ~4 ms each).
    RATE_RPS = 100.0
    CONNECTIONS = 2

    def suite(self):
        return cached(self.cache_dir, "office", lambda: generate_path_suite("office", 0))

    def reference(self, model_dir: Path) -> PoolRef:
        suite = self.suite()
        entry = ModelStore(model_dir).get_or_fit("STONE", suite, seed=0, fast=True)
        if entry.source != "disk":
            raise RuntimeError("server wrote no STONE artifact")
        pool = as_scan_matrix(np.vstack([d.rssi for d in suite.test_epochs]), suite.n_aps)
        truth = np.vstack([d.locations for d in suite.test_epochs])
        return PoolRef(pool, truth, entry.localizer.predict_batched(pool),
                       localizer=entry.localizer)

    def plan(self, ref: PoolRef, seed: int, seconds: float, *, trace: bool) -> Plan:
        rng = np.random.default_rng([seed, 1])
        expected_n = int(self.RATE_RPS * seconds)
        gaps = rng.exponential(1.0 / self.RATE_RPS, size=2 * expected_n + self.min_reads)
        offsets = np.cumsum(gaps)
        n = max(int(np.searchsorted(offsets, seconds)), self.min_reads)
        picks = rng.integers(ref.pool.shape[0], size=n)
        rows = [np.array([p]) for p in picks]
        bodies = [
            _read_body("/localize", ref.pool[r], trace=trace, single=True) for r in rows
        ]
        return Plan(rows=rows, bodies=bodies, offsets=offsets[:n].tolist())

    def drive(self, port: int, plan: Plan, seconds: float) -> Load:
        reads, start = open_loop(
            port, plan.bodies, plan.offsets, kind="read", connections=self.CONNECTIONS
        )
        return Load(reads=reads, start=start, end=max(e.done for e in reads))


class FleetGateway(Workload):
    name = "fleet-gateway"
    serve_args = ["--fleet", FLEET_SPEC, "--framework", "KNN", "--fast", "--workers", "1"]
    BATCH_ROWS = 64
    ZIPF_S = 1.0
    #: One gateway: on 2 vCPUs, with two closed-loop connections the
    #: per-second p50 swings 16-39 ms (two requests contend inside the
    #: server), which no affordable run length averages into a steady number.
    CONNECTIONS = 1
    #: Distinct pre-encoded bodies the closed loop cycles through.
    DISTINCT = 192
    #: Held-out months the traffic comes from (all of them).
    EPOCHS = (0, 1, 2, 3)

    def suites(self):
        return cached(self.cache_dir, "fleet", _fleet_suites)

    def _pool(self, registry: FleetRegistry, epochs) -> tuple[np.ndarray, np.ndarray, list]:
        parts = [fleet_epoch_traffic(registry, e) for e in epochs]
        offsets = np.cumsum([0] + [p[0].shape[0] for p in parts])[:-1]
        pool = np.vstack([p[0] for p in parts])
        truth = np.vstack([p[3] for p in parts])
        return pool, truth, list(zip(epochs, offsets))

    def reference(self, model_dir: Path) -> PoolRef:
        registry = fleet_registry(model_dir, self.suites())
        pool, truth, epochs = self._pool(registry, self.EPOCHS)
        expected, decision = ScanRouter(registry).predict(pool)
        return PoolRef(pool, truth, expected, registry=registry, epochs=epochs,
                       decision=decision)

    def _sample(self, ref: PoolRef, seed: int, n: int, rows_per: int) -> list[np.ndarray]:
        """``n`` Zipf-skewed requests as pool row indices (via ``TrafficPool``)."""
        out = []
        pools = []
        for epoch, offset in ref.epochs:
            tp = TrafficPool(ref.registry, epoch=epoch, zipf_s=self.ZIPF_S,
                             seed=seed * 16 + epoch)
            lookup = {tp.scans[i].tobytes(): offset + i for i in range(tp.n_rows)}
            pools.append((tp, lookup))
        for i in range(n):
            tp, lookup = pools[i % len(pools)]
            scans, _, _ = tp.sample(rows_per)
            out.append(np.array([lookup[row.tobytes()] for row in scans]))
        return out

    def plan(self, ref: PoolRef, seed: int, seconds: float, *, trace: bool) -> Plan:
        rows = self._sample(ref, seed, self.DISTINCT, self.BATCH_ROWS)
        bodies = [
            _read_body("/localize_batch", ref.pool[r], trace=trace, single=False)
            for r in rows
        ]
        return Plan(rows=rows, bodies=bodies)

    def drive(self, port: int, plan: Plan, seconds: float) -> Load:
        reads, start, end = closed_loop(
            port, plan.bodies, kind="read", connections=self.CONNECTIONS,
            seconds=seconds, min_samples=self.min_reads, max_seconds=3 * seconds,
        )
        return Load(reads=reads, start=start, end=end)


class FleetIngest(FleetGateway):
    name = "fleet-ingest"
    #: Every MIN_SCANS buffered rows the buffer is full: the slot's drift
    #: is scored through its serving model and a refit + hot swap lands
    #: whatever the score, so swaps keep coming once the month is learnt.
    MIN_SCANS = 16
    DRIFT_THRESHOLD_M = 1.0
    serve_args = [
        "--fleet", FLEET_SPEC, "--framework", "KNN", "--fast", "--workers", "0",
        "--drift-threshold-m", str(DRIFT_THRESHOLD_M),
        "--live-min-scans", str(MIN_SCANS), "--live-max-scans", str(MIN_SCANS),
    ]
    BATCH_ROWS = 16
    EPOCHS = (3,)
    SLOT = ("HQ", 0)
    OBSERVE_ROWS = 8
    OBSERVE_PERIOD_S = 0.25
    POLL_S = 0.02

    @property
    def slot_label(self) -> str:
        return f"{self.SLOT[0]}/f{self.SLOT[1]}"

    def reference(self, model_dir: Path) -> PoolRef:
        ref = super().reference(model_dir)
        registry = ref.registry
        b = registry.building_index(self.SLOT[0])
        ref.slot_rows = np.flatnonzero(
            (ref.decision.building_idx == b) & (ref.decision.floors == self.SLOT[1])
        )
        _, true_b, true_f, _ = fleet_epoch_traffic(registry, self.EPOCHS[0])
        month = np.flatnonzero((true_b == b) & (true_f == self.SLOT[1]))
        # Observe the first half of the slot's month; the rest is only read.
        ref.observe_rows = month[: month.size // 2]
        return ref

    def plan(self, ref: PoolRef, seed: int, seconds: float, *, trace: bool) -> Plan:
        plan = super().plan(ref, seed, seconds, trace=trace)
        rng = np.random.default_rng([seed, 2])
        order = rng.permutation(ref.observe_rows)
        n_bodies = int(np.ceil(order.size / self.OBSERVE_ROWS))
        order = np.resize(order, n_bodies * self.OBSERVE_ROWS)
        for k in range(n_bodies):
            take = order[k * self.OBSERVE_ROWS : (k + 1) * self.OBSERVE_ROWS]
            plan.observe_bodies.append(encode_request("POST", "/observe", {
                "api_version": API_VERSION,
                "rssi": ref.pool[take].tolist(),
                "locations": ref.truth[take].tolist(),
                "building": self.SLOT[0],
                "floor": self.SLOT[1],
            }))
        return plan

    def check_writes(self, writes: list[Exchange]) -> list[str]:
        return [
            f"observe {ex.item} appended {ex.json().get('appended')} rows"
            for ex in writes
            if ex.ok and ex.json().get("appended") != self.OBSERVE_ROWS
        ]

    def _slot_version(self, ex: Exchange) -> int:
        return int(ex.json()["slots"][self.slot_label]["version"])

    def drive(self, port: int, plan: Plan, seconds: float) -> Load:
        """Reads on one connection; scheduled writes (and swap polls) on the other."""
        writes: list[Exchange] = []
        lags: list[float] = []
        models_req = encode_request("GET", "/models")
        start = time.perf_counter()
        end = start + seconds

        def writer() -> None:
            conn = Connection(port)
            k = 0
            pending: tuple[float, int] | None = None
            try:
                while True:
                    now = time.perf_counter()
                    due = start + k * self.OBSERVE_PERIOD_S
                    if due >= end:
                        return
                    if now >= due:
                        item = k % len(plan.observe_bodies)
                        ex = exchange(conn, "observe", item, plan.observe_bodies[item], due)
                        writes.append(ex)
                        k += 1
                        if ex.ok and pending is None:
                            answer = ex.json()
                            if answer["buffered"] >= self.MIN_SCANS:
                                pending = (ex.done, int(answer["version"]))
                        continue
                    if pending is not None:
                        ex = exchange(conn, "models", 0, models_req)
                        if ex.ok and self._slot_version(ex) > pending[1]:
                            lags.append(ex.done - pending[0])
                            pending = None
                        time.sleep(max(0.0, min(self.POLL_S, due - time.perf_counter())))
                    else:
                        time.sleep(max(0.0, due - now))
            finally:
                conn.close()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            reads, r_start, r_end = closed_loop(
                port, plan.bodies, kind="read", connections=1,
                seconds=seconds, min_samples=self.min_reads, max_seconds=3 * seconds,
            )
        finally:
            thread.join()
        return Load(reads=reads, start=min(start, r_start), end=r_end,
                    writes=writes, swap_lags=lags)

    def settle(self, port: int) -> dict:
        """Wait until no refit is in flight and the slot version holds still."""
        deadline = time.monotonic() + 30
        last = None
        while time.monotonic() < deadline:
            models = get_json(port, "/models")
            state = models["live"]["slots"].get(self.slot_label, {})
            version = models["slots"][self.slot_label]["version"]
            if not state.get("refit_inflight") and version == last:
                return models
            last = None if state.get("refit_inflight") else version
            time.sleep(0.1)
        raise RuntimeError("live refits did not settle")

    def candidates(self, ref: PoolRef, port: int, model_dir: Path) -> list[np.ndarray]:
        """Reference answers for every version the observed slot served.

        The observed slot is the only one that refits, so every artifact
        the server wrote beyond the initial fit of each slot is one of
        its versions; artifacts are written in refit order.
        """
        models = self.settle(port)
        version = int(models["slots"][self.slot_label]["version"])
        digest = models["slots"][self.slot_label]["digest"]
        initial = {s.entry.key.digest for s in ref.registry.slots()}
        refits = sorted(
            (p for p in model_dir.glob("*.pkl") if p.stem not in initial),
            key=lambda p: p.stat().st_mtime_ns,
        )
        if len(refits) != version - 1:
            raise RuntimeError(
                f"{self.slot_label} is at version {version} but the model "
                f"directory holds {len(refits)} refit artifacts"
            )
        if refits and not refits[-1].stem.startswith(digest):
            raise RuntimeError(f"{self.slot_label} serves {digest}, not the newest refit")
        deployment = ref.registry.building(self.SLOT[0])
        block = deployment.block(ref.pool[ref.slot_rows])
        out = [ref.expected]
        for path in refits:
            with path.open("rb") as fh:
                localizer = pickle.load(fh)["localizer"]
            answers = ref.expected.copy()
            answers[ref.slot_rows] = localizer.predict_batched(block)
            out.append(answers)
        return out


WORKLOADS = {w.name: w for w in (ScanSingle, FleetGateway, FleetIngest)}
