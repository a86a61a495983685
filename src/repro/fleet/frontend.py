"""Fleet admission/routing front-end over a pluggable slot executor.

One asyncio event loop fronts the whole fleet: every request is
**admitted** (bounded queue, atomic check+reserve), **routed**
(hierarchical building/floor classification off the loop) and then its
row groups are **executed** per slot. Execution is a seam with two
implementations:

* :class:`LocalSlotExecutor` (``workers=0``, the default) — one
  :class:`~repro.serve.dispatcher.BatchingDispatcher` per slot inside
  this process: the coalescer over an inference thread.
* :class:`~repro.fleet.worker.WorkerPool` (``workers>=1``) — N worker
  processes owning slots by consistent hash, radio maps mapped from
  shared memory so replicas cost no extra RAM; each slot's coalescer
  flushes over its owner's pipe.

Both executors batch through the same
:class:`~repro.serve.dispatcher.Coalescer`, so flush policy, error
fan-out, trace spans and dispatch metrics are identical across them.

Every contract is executor-independent and pinned by the same tests
against both: bounded admission with atomic 429s happens *here*, before
anything is enqueued anywhere; answers are bit-identical across
executors (``predict_batched`` is row-independent and the model state
is byte-for-byte the same); ``pending_rows`` counts rows admitted but
not yet answered, whichever process computes them.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.trace import Trace
from ..serve.dispatcher import BatchingDispatcher, dispatch_stats
from ..serve.protocol import MAX_BATCH_ROWS
from .registry import FleetRegistry, FleetSlot
from .router import RoutingDecision, ScanRouter
from .worker import WorkerPool

#: Default admission bound: two protocol-maximum batches, so any batch
#: the HTTP layer accepts (``MAX_BATCH_ROWS``) is admissible on an idle
#: fleet and one giant request cannot monopolize the whole queue.
DEFAULT_MAX_PENDING_ROWS = 2 * MAX_BATCH_ROWS


class FleetOverloadError(RuntimeError):
    """Admission queue full; the HTTP layer answers 429."""

    def __init__(self, pending_rows: int, max_pending_rows: int, n_rows: int) -> None:
        super().__init__(
            f"fleet overloaded: {pending_rows} rows in flight + {n_rows} "
            f"requested > {max_pending_rows} admitted max"
        )
        self.pending_rows = pending_rows
        self.max_pending_rows = max_pending_rows


def fleet_stats(snapshot: MetricsSnapshot) -> dict:
    """The fleet-level admission/routing counts, read off ``snapshot``."""

    def count(name: str) -> int:
        return int(snapshot.value(f"repro_fleet_{name}_total"))

    return {
        "requests": count("requests"),
        "rows": count("rows"),
        "forced_requests": count("forced_requests"),
        "rejected_requests": count("rejected"),
        "errors": count("errors"),
    }


def routing_stats(snapshot: MetricsSnapshot, slot: str) -> dict:
    """One slot's routed-traffic counts, read off ``snapshot``."""
    return {
        key: int(snapshot.value(f"repro_routing_{key}_total", slot))
        for key in ("requests", "rows", "forced_rows")
    }


class LocalSlotExecutor:
    """In-process slot execution: one BatchingDispatcher per slot."""

    def __init__(
        self,
        registry: FleetRegistry,
        *,
        metrics: MetricsRegistry,
        batch_window_ms: float = 2.0,
        max_batch: int = 256,
        chunk_size: int | None = None,
    ) -> None:
        # Kept for hot-swap: a replacement dispatcher must be built with
        # the same micro-batching knobs and record into the same
        # registry, so the slot's counts carry across the swap.
        self._knobs = {
            "batch_window_ms": batch_window_ms,
            "max_batch": max_batch,
            "chunk_size": chunk_size,
            "metrics": metrics,
        }
        self._dispatchers: dict[str, BatchingDispatcher] = {
            slot.slot.label: self._build(slot.slot.label, slot.entry.localizer)
            for slot in registry.slots()
        }

    def _build(self, label: str, localizer) -> BatchingDispatcher:
        return BatchingDispatcher(localizer, slot=label, **self._knobs)

    async def submit(
        self, label: str, scans: np.ndarray, *, trace: Trace | None = None
    ) -> np.ndarray:
        while True:
            dispatcher = self._dispatchers[label]
            try:
                return await dispatcher.localize(scans, trace=trace)
            except RuntimeError:
                # A swap can close the dispatcher between our lookup and
                # the enqueue; if the slot has already been rebound,
                # retry on the replacement — the request is never
                # dropped. Any other RuntimeError propagates.
                if self._dispatchers.get(label) is dispatcher:
                    raise

    async def swap(self, label: str, localizer) -> None:
        """Atomically point a slot at a new fitted localizer.

        The replacement dispatcher is built warm (the localizer is
        already fitted), records into the same slot series, and is
        installed in one loop-tick
        assignment — new arrivals see only one version or the other,
        never a mix. The old dispatcher then drains (every enqueued and
        in-flight request completes on the old model) before closing.
        """
        if label not in self._dispatchers:
            raise KeyError(f"unknown slot {label!r}")
        replacement = self._build(label, localizer)
        old = self._dispatchers[label]
        # Single assignment on the event-loop thread = the atomic flip.
        self._dispatchers[label] = replacement
        await old.drain()
        old.close()

    def close(self) -> None:
        for dispatcher in self._dispatchers.values():
            dispatcher.close()

    def slot_stats(self, snapshot: MetricsSnapshot) -> dict:
        return {label: dispatch_stats(snapshot, label) for label in self._dispatchers}

    def describe(self, snapshot: MetricsSnapshot) -> dict:
        return {"mode": "in-process"}


class FleetDispatcher:
    """Admit, route and execute fleet requests behind one loop.

    Parameters
    ----------
    registry:
        The fitted fleet.
    batch_window_ms / max_batch / chunk_size:
        Micro-batching knobs, forwarded to the slot executor.
    max_pending_rows:
        Fleet-wide bound on rows admitted but not yet answered; the
        backpressure knob (``repro serve --max-pending-rows``).
    workers:
        ``0`` serves in-process (:class:`LocalSlotExecutor`); ``>= 1``
        spawns that many worker processes
        (:class:`~repro.fleet.worker.WorkerPool`) sharing the radio
        maps through shared memory (``repro serve --workers``).
    start_method:
        Multiprocessing start method for the worker pool; ``None``
        resolves through ``$REPRO_MP_START`` (:mod:`repro.mp`).

    Every count of the fleet — admission, routing, per-slot dispatch,
    parent-side worker and live-loop counts — lives in ``self.metrics``,
    one fresh :class:`~repro.obs.MetricsRegistry` handed on to the slot
    executor, the worker pool and the live manager. ``/healthz``,
    ``/models`` and ``/fleet`` read them back from one snapshot.
    """

    def __init__(
        self,
        registry: FleetRegistry,
        *,
        batch_window_ms: float = 2.0,
        max_batch: int = 256,
        chunk_size: int | None = None,
        max_pending_rows: int = DEFAULT_MAX_PENDING_ROWS,
        workers: int = 0,
        start_method: str | None = None,
    ) -> None:
        if max_pending_rows < 1:
            raise ValueError("max_pending_rows must be >= 1")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.registry = registry
        self.router = ScanRouter(registry)
        self.max_pending_rows = int(max_pending_rows)
        self.workers = int(workers)
        self.metrics = MetricsRegistry()
        if workers == 0:
            self._executor = LocalSlotExecutor(
                registry,
                metrics=self.metrics,
                batch_window_ms=batch_window_ms,
                max_batch=max_batch,
                chunk_size=chunk_size,
            )
        else:
            self._executor = WorkerPool(
                registry,
                workers=workers,
                batch_window_ms=batch_window_ms,
                max_batch=max_batch,
                chunk_size=chunk_size,
                start_method=start_method,
                metrics=self.metrics,
            )
        self._pending_rows = 0
        self._closed = False
        m = self.metrics
        self._m_requests = m.counter(
            "repro_fleet_requests_total", "Fleet requests answered successfully."
        )
        self._m_rows = m.counter(
            "repro_fleet_rows_total", "Scan rows answered across the fleet."
        )
        self._m_forced = m.counter(
            "repro_fleet_forced_requests_total",
            "Fleet requests answered with pinned (forced) routing.",
        )
        self._m_rejected = m.counter(
            "repro_fleet_rejected_total", "Requests refused at admission (HTTP 429)."
        )
        self._m_errors = m.counter(
            "repro_fleet_errors_total", "Fleet requests failed after admission."
        )
        self._m_routing_seconds = m.histogram(
            "repro_routing_seconds", "Building/floor classification time per request."
        )
        self._m_pending = m.gauge(
            "repro_fleet_pending_rows",
            "Rows admitted and not yet answered (queue depth).",
        )
        self._m_slot_requests = m.counter(
            "repro_routing_requests_total",
            "Slot batches answered (one per slot a request touched), by slot.",
            ("slot",),
        )
        self._m_slot_rows = m.counter(
            "repro_routing_rows_total", "Scan rows answered, by slot.", ("slot",)
        )
        self._m_slot_forced_rows = m.counter(
            "repro_routing_forced_rows_total",
            "Scan rows answered under pinned routing, by slot.",
            ("slot",),
        )

    def update_gauges(self) -> None:
        """Refresh scrape-time gauges (queue depth, worker liveness)."""
        self._m_pending.set(self._pending_rows)
        if isinstance(self._executor, WorkerPool):
            self._executor.update_gauges()

    async def collect_worker_metrics(self) -> list[MetricsSnapshot]:
        """Worker-process metric snapshots (empty for in-process mode)."""
        if isinstance(self._executor, WorkerPool):
            return await self._executor.collect_metrics()
        return []

    def worker_liveness(self, snapshot: MetricsSnapshot) -> dict:
        """Compact worker summary for ``/healthz`` probes."""
        if not isinstance(self._executor, WorkerPool):
            return {"mode": "in-process"}
        stats = self._executor.worker_stats(snapshot)
        return {
            "mode": "multi-process",
            "workers": len(stats),
            "alive": sum(1 for w in stats if w["alive"]),
            "restarts": sum(w["restarts"] for w in stats),
        }

    @property
    def pending_rows(self) -> int:
        """Rows admitted and not yet answered (the queue depth)."""
        return self._pending_rows

    @property
    def executor(self):
        """The slot executor behind the seam (tests & rebalance)."""
        return self._executor

    # -- dispatch ----------------------------------------------------------

    async def localize(
        self,
        scans: np.ndarray,
        *,
        decision: RoutingDecision | None = None,
        building: str | None = None,
        floor: int | None = None,
        trace: Trace | None = None,
    ) -> tuple[np.ndarray, RoutingDecision]:
        """Admit, route and answer one request's fleet-wide scan rows.

        Routing resolves one of three ways: ``decision`` pins every row
        outright; ``building`` (optionally with ``floor``) pins the
        building and classifies only what's left; ``None`` classifies
        hierarchically. Classification always runs *after* admission
        (a rejected request never pays for it) and off the event loop.
        Raises :class:`FleetOverloadError` when the admission bound
        would be exceeded — before any row is enqueued — and
        ``KeyError`` for a pin naming an unknown building/floor.
        """
        if self._closed:
            raise RuntimeError("fleet dispatcher is closed")
        if decision is not None and building is not None:
            raise ValueError("pass either decision= or building=, not both")
        if floor is not None and building is None:
            raise ValueError("floor= requires building=")
        t_admit = time.perf_counter()
        scans = self.router.check_scans(scans)
        n = scans.shape[0]
        if n > self.max_pending_rows:
            # Structurally unservable: no amount of retrying fits this
            # batch under the bound. A client error (400), not a 429 —
            # the retry hint would loop forever.
            raise ValueError(
                f"batch of {n} rows can never be admitted "
                f"(max_pending_rows={self.max_pending_rows}); split it"
            )
        # Check + reserve with no await in between: on the single-threaded
        # event loop this is atomic, so concurrent requests can never
        # jointly overshoot the bound.
        if self._pending_rows + n > self.max_pending_rows:
            self._m_rejected.inc()
            raise FleetOverloadError(self._pending_rows, self.max_pending_rows, n)
        self._pending_rows += n
        if trace is not None:
            trace.add("admission", time.perf_counter() - t_admit)
        try:
            t_route = time.perf_counter()
            if decision is not None:
                if decision.n_rows != n:
                    raise ValueError(
                        f"decision covers {decision.n_rows} rows, scans have {n}"
                    )
            elif building is not None and floor is not None:
                decision = self.router.decide_slot(building, floor, n)
            else:
                # Classification is dense numpy work (O(rows x refs)
                # distance blocks); run it off the loop so other
                # requests keep being admitted and the slot micro-batch
                # windows keep filling while this one classifies.
                loop = asyncio.get_running_loop()
                if building is not None:
                    decision = await loop.run_in_executor(
                        None, self.router.route_building, scans, building
                    )
                else:
                    decision = await loop.run_in_executor(
                        None, self.router.route, scans
                    )
            routing_elapsed = time.perf_counter() - t_route
            self._m_routing_seconds.observe(routing_elapsed)
            if trace is not None:
                trace.add("routing", routing_elapsed)
            groups = self.router.group_rows(decision)
            self.router.check_groups_cover(groups, n)
            coords = np.empty((n, 2), dtype=np.float64)
            names = [b.name for b in self.registry.buildings]
            t_execute = time.perf_counter()

            async def run_slot(slot_key: tuple[int, int], rows: np.ndarray) -> None:
                deployment = self.registry.buildings[slot_key[0]]
                block = deployment.block(scans[rows])
                label = f"{names[slot_key[0]]}/f{slot_key[1]}"
                coords[rows] = await self._executor.submit(
                    label, block, trace=trace
                )
                self._m_slot_requests.labels(label).inc()
                self._m_slot_rows.labels(label).inc(rows.shape[0])
                if decision.forced:
                    self._m_slot_forced_rows.labels(label).inc(rows.shape[0])

            # return_exceptions so every slot batch finishes before the
            # admission reservation is released in the finally below —
            # pending_rows must never under-count work still computing
            # in a sibling slot's executor.
            results = await asyncio.gather(
                *(run_slot(key, rows) for key, rows in groups.items()),
                return_exceptions=True,
            )
            errors = [r for r in results if isinstance(r, BaseException)]
            if errors:
                self._m_errors.inc()
                raise errors[0]
            if trace is not None:
                # Scatter-back: slot answers landed in `coords` as each
                # run_slot wrote its rows; this span is the full fan-out
                # (submit through last slot's scatter).
                trace.add(
                    "scatter", time.perf_counter() - t_execute,
                    slots=len(groups),
                )
        finally:
            self._pending_rows -= n
        self._m_requests.inc()
        self._m_rows.inc(n)
        if decision.forced:
            self._m_forced.inc()
        return coords, decision

    # -- topology ----------------------------------------------------------

    async def set_workers(self, workers: int) -> dict:
        """Rebalance the worker pool to a new process count.

        Only meaningful in multi-process mode; in-process fleets have
        no topology to change. In-flight batches complete on their old
        owners, moved slots rehome warm, zero requests drop
        (:meth:`~repro.fleet.worker.WorkerPool.resize`).
        """
        if not isinstance(self._executor, WorkerPool):
            raise RuntimeError(
                "set_workers requires a multi-process fleet (workers >= 1)"
            )
        summary = await self._executor.resize(workers)
        self.workers = int(workers)
        return summary

    async def swap_slot(self, building: str, floor: int, *, entry, suite) -> dict:
        """Atomically hot-swap one slot to a new model version.

        The executor flips first (old model answers everything admitted
        before the flip, the new one everything after — no request ever
        sees a mixed-version batch and none drop), then the registry
        rebinding bumps the slot's ``version`` for ``/models`` and
        ``/fleet``. Works identically across the executor seam:
        in-process swaps replace the slot's ``BatchingDispatcher``;
        worker pools republish the slot's shared-memory radio map and
        re-adopt it on its owner (releasing the old segments).
        """
        slot = self.registry.slot(building, floor)
        label = slot.slot.label
        t0 = time.perf_counter()
        if isinstance(self._executor, WorkerPool):
            staged = FleetSlot(
                slot=slot.slot, suite=suite, entry=entry, index=slot.index
            )
            await self._executor.swap_slot(staged)
        else:
            await self._executor.swap(label, entry.localizer)
        self.registry.rebind_slot(building, floor, entry=entry, suite=suite)
        return {
            "slot": label,
            "version": slot.version,
            "digest": entry.key.digest[:16],
            "seconds": time.perf_counter() - t0,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the slot executor (fails its pending requests)."""
        if self._closed:
            return
        self._closed = True
        self._executor.close()

    # -- introspection -----------------------------------------------------

    def slot_stats(self, snapshot: MetricsSnapshot) -> dict:
        """Per-slot dispatcher + routing counters, keyed by slot label."""
        executor_stats = self._executor.slot_stats(snapshot)
        return {
            label: {
                "routing": routing_stats(snapshot, label),
                "dispatcher": executor_stats[label],
            }
            for label in executor_stats
        }

    def admission(self) -> dict:
        """The admission bound and the rows currently held against it."""
        return {
            "max_pending_rows": self.max_pending_rows,
            "pending_rows": self._pending_rows,
        }

    def describe(self, snapshot: MetricsSnapshot) -> dict:
        """JSON-ready dispatch state for ``/fleet``; counts from ``snapshot``."""
        return {
            "admission": self.admission(),
            "fleet": fleet_stats(snapshot),
            "executor": self._executor.describe(snapshot),
            "slots": self.slot_stats(snapshot),
        }
