"""Async micro-batching: one :class:`Coalescer`, two compute sinks.

The serving hot path: many concurrent clients each submit one
``(n_aps,)`` scan, but the fitted models are dramatically faster per
query when driven through ``predict_batched`` on a coalesced
``(n, n_aps)`` matrix (PR 1's batched contract — one distance/forward
block instead of n tiny ones). The :class:`Coalescer` bridges the two,
and it is the only micro-batching implementation in the package:

* Requests enqueue into a pending list. The first arrival arms a flush
  timer of ``batch_window_ms``; the batch flushes early the moment
  ``max_batch`` rows are pending. Everything in one flush rides a
  single call into the coalescer's **compute sink**, an async
  ``(matrix) -> coords`` callable; results are then split back to the
  awaiting futures row-for-row. A failed flush rejects every future of
  its batch.
* Because ``BatchedLocalizer.predict`` is row-independent by contract,
  the coalesced answer is **bit-identical** to dispatching each request
  alone — micro-batching changes latency and throughput, never values
  (``tests/serve/test_dispatcher.py`` asserts this for both sinks).
* Frameworks whose online phase is stateful over the scan sequence
  (GIFT's walk decoding — ``batched_inference`` is False) cannot be
  coalesced across clients: interleaving two users' scans into one
  "walk" would corrupt both. Those fall back to **per-request
  dispatch**: each request is its own flush, its rows one ordered
  sequence, in arrival order.

There are two sinks. :class:`BatchingDispatcher` is the coalescer over
a single worker thread (``run_in_executor``), so the event loop keeps
accepting and coalescing new arrivals while a batch computes — that
overlap is where micro-batching throughput comes from — and the single
thread serializes sequential-framework requests without extra locking.
The fleet's :class:`~repro.fleet.worker.WorkerPool` keeps one
coalescer per slot whose sink is a predict round trip over its owning
worker process's pipe.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Callable
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..baselines.base import BatchedLocalizer, Localizer
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.trace import Trace

#: An async compute sink: one coalesced ``(n, n_aps)`` matrix in, its
#: ``(n, 2)`` coordinates out.
Sink = Callable[[np.ndarray], Awaitable[np.ndarray]]

#: One queued request: rows, its future, its trace, enqueue time.
_Entry = tuple[np.ndarray, asyncio.Future, Trace | None, float]


def dispatch_stats(snapshot: MetricsSnapshot, slot: str) -> dict:
    """One slot's ``dispatcher`` JSON section, read off a registry snapshot.

    Every count is a ``repro_dispatch_*{slot}`` series, so the JSON
    endpoints and ``/metrics`` cannot disagree, and a slot's counts
    survive a hot-swap of its dispatcher.
    """

    def count(name: str) -> int:
        return int(snapshot.value(f"repro_dispatch_{name}", slot))

    rows, batches = count("rows_total"), count("batches_total")
    return {
        "requests": count("requests_total"),
        "rows": rows,
        "batches": batches,
        # Average coalesced rows per dispatch (1.0 = no coalescing).
        "mean_batch_rows": round(rows / batches if batches else 0.0, 2),
        "max_batch_rows": count("max_batch_rows"),
        "sequential_requests": count("sequential_requests_total"),
        "errors": count("errors_total"),
        "shard_grouped_batches": count("shard_grouped_batches_total"),
        "shard_groups": count("shard_groups_total"),
    }


class Coalescer:
    """Coalesce concurrent localization requests into sink calls.

    Parameters
    ----------
    sink:
        The async compute sink every flush goes to.
    metrics:
        The registry this coalescer's ``repro_dispatch_*`` counters and
        ``repro_batch_compute_seconds`` record into, under its slot
        label. Coalescers sharing a registry and a slot share the
        series: a hot-swapped slot keeps counting where it left off.
    batched:
        ``True`` for batch-safe models (micro-batching); ``False`` for
        sequential decoders (ordered per-request dispatch).
    batch_window_ms:
        How long the first request of a batch waits for company before
        flushing. ``0`` still coalesces arrivals of the same event-loop
        tick. Trade-off: larger windows raise throughput under load and
        add up to that much idle latency when traffic is sparse.
    max_batch:
        Flush immediately once this many rows are pending. Bounds how
        stale the window can let a batch get; does not split a single
        larger-than-``max_batch`` request.
    slot:
        Labels this coalescer's ``queue``/``compute`` trace spans and
        its metric series (fleet slots); ``None`` leaves the spans
        unlabeled and labels the series ``"_"`` (the single-model
        server).
    """

    def __init__(
        self,
        sink: Sink,
        *,
        batched: bool,
        metrics: MetricsRegistry,
        batch_window_ms: float = 2.0,
        max_batch: int = 256,
        slot: str | None = None,
    ) -> None:
        if batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.batched = batched
        self.batch_window_ms = float(batch_window_ms)
        self.max_batch = int(max_batch)
        self.slot = slot
        self.metrics = metrics
        #: The ``slot`` label of this coalescer's metric series.
        self.label = "_" if slot is None else slot
        self._sink = sink
        self._pending: list[_Entry] = []
        self._pending_rows = 0
        self._flush_handle: asyncio.TimerHandle | None = None
        #: Sink calls launched and not yet delivered (what drain awaits).
        self._inflight: set[asyncio.Future] = set()
        self._closed = False
        # ``repro_batch_compute_seconds`` times the whole sink call: for
        # the worker sink that includes the pipe round trip (the
        # in-worker share is ``repro_worker_predict_seconds``).
        self._m_batch_seconds = metrics.histogram(
            "repro_batch_compute_seconds", "Coalesced-batch inference time, by slot.", ("slot",)
        ).labels(self.label)
        self._m_max_rows = metrics.gauge(
            "repro_dispatch_max_batch_rows",
            "Largest coalesced flush so far, in rows, by slot.",
            ("slot",),
        ).labels(self.label)
        self._m_requests = self._counter("requests", "Requests submitted to the dispatcher")
        self._m_sequential = self._counter(
            "sequential_requests", "Requests dispatched alone (sequential models)"
        )
        self._m_rows = self._counter("rows", "Scan rows resolved through the dispatcher")
        self._m_batches = self._counter("batches", "Coalesced flushes dispatched")
        self._m_errors = self._counter("errors", "Requests failed inside dispatch")

    def _counter(self, name: str, help: str):  # noqa: A002
        """This coalescer's series of counter ``repro_dispatch_<name>_total``."""
        return self.metrics.counter(
            f"repro_dispatch_{name}_total", f"{help}, by slot.", ("slot",)
        ).labels(self.label)

    def stats(self) -> dict:
        """This coalescer's slot counters, from a fresh registry snapshot."""
        return dispatch_stats(self.metrics.snapshot(), self.label)

    # -- public API --------------------------------------------------------

    async def localize(
        self, rssi: np.ndarray, *, trace: Trace | None = None
    ) -> np.ndarray:
        """Resolve ``(n, n_aps)`` (or a single ``(n_aps,)``) scan rows.

        Awaits until the request's batch is dispatched and returns the
        ``(n, 2)`` coordinates for exactly the submitted rows. Raises
        whatever the sink raises. A failed dispatch rejects every future
        of its batch; it never corrupts results of other batches. (The
        HTTP layer validates shapes per request before enqueueing, so
        one client's malformed scan cannot fail a co-batched client.)
        """
        if self._closed:
            raise RuntimeError("dispatcher is closed")
        rssi = np.asarray(rssi, dtype=np.float64)
        if rssi.ndim == 1:
            rssi = rssi[None, :]
        if rssi.ndim != 2 or rssi.shape[0] == 0:
            raise ValueError(f"expected (n>=1, n_aps) scans, got {rssi.shape}")
        self._m_requests.inc()
        loop = asyncio.get_running_loop()
        entry = (rssi, loop.create_future(), trace, time.perf_counter())
        if not self.batched:
            # Never coalesced across clients: the request is its own
            # flush, launched now, so sinks see arrival order.
            self._m_sequential.inc()
            self._launch([entry], entry[3])
        else:
            self._pending.append(entry)
            self._pending_rows += rssi.shape[0]
            if self._pending_rows >= self.max_batch:
                self._flush()
            elif self._flush_handle is None:
                self._flush_handle = loop.call_later(
                    self.batch_window_ms / 1000.0, self._flush
                )
        return await entry[1]

    async def drain(self) -> None:
        """Complete every enqueued and in-flight request, failing none.

        The hot-swap half of ``close()``: a live swap first points new
        traffic at the replacement, then drains this coalescer so
        requests that already hold its reference finish on the *old*
        model. Flushes whatever is pending, then awaits the sink calls
        launched so far — whatever the sink is. Later arrivals are not
        waited for, so a drain under sustained traffic still returns.
        """
        self._flush()
        if self._inflight:
            await asyncio.wait(tuple(self._inflight))

    def close(self) -> None:
        """Fail pending (not yet flushed) requests; refuse new ones."""
        if self._closed:
            return
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending, self._pending = self._pending, []
        self._pending_rows = 0
        for _, fut, _, _ in pending:
            if not fut.done():
                fut.set_exception(RuntimeError("dispatcher closed"))

    # -- micro-batching core -----------------------------------------------

    def _span_attrs(self) -> dict:
        return {} if self.slot is None else {"slot": self.slot}

    def _flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch, self._pending = self._pending, []
        self._pending_rows = 0
        if not batch:
            return
        t_flush = time.perf_counter()
        attrs = self._span_attrs()
        for _, _, trace, t_enqueue in batch:
            if trace is not None:
                # Coalescing wait: enqueue until this flush fired.
                trace.add("queue", t_flush - t_enqueue, **attrs)
        self._launch(batch, t_flush)

    def _launch(self, batch: list[_Entry], t_start: float) -> None:
        try:
            # Raises when direct API callers coalesce inconsistent row
            # widths; fail this batch rather than hang its futures.
            matrix = (
                batch[0][0]
                if len(batch) == 1
                else np.concatenate([rows for rows, _, _, _ in batch], axis=0)
            )
            job = asyncio.ensure_future(self._sink(matrix))
        except Exception as exc:
            self._fail(batch, exc)
            return
        # Delivered from a done callback rather than a wrapping task,
        # so the thread sink pays no extra task step per flush.
        self._inflight.add(job)
        job.add_done_callback(lambda done: self._deliver(batch, done, t_start))

    def _fail(self, batch: list[_Entry], exc: BaseException) -> None:
        self._m_errors.inc(len(batch))
        for _, fut, _, _ in batch:
            if not fut.done():
                fut.set_exception(exc)

    def _deliver(
        self, batch: list[_Entry], done: asyncio.Future, t_start: float
    ) -> None:
        self._inflight.discard(done)
        exc = asyncio.CancelledError() if done.cancelled() else done.exception()
        if exc is not None:
            self._fail(batch, exc)
            return
        coords = done.result()
        elapsed = time.perf_counter() - t_start
        n_rows = sum(rows.shape[0] for rows, _, _, _ in batch)
        # Counted only on success, so the batch counters reflect
        # completed work.
        self._m_batch_seconds.observe(elapsed)
        self._m_rows.inc(n_rows)
        self._m_batches.inc()
        self._m_max_rows.set_max(n_rows)
        attrs = self._span_attrs()
        if self.batched:
            attrs["batch_rows"] = n_rows
        offset = 0
        for rows, fut, trace, _ in batch:
            n = rows.shape[0]
            if trace is not None:
                trace.add("compute", elapsed, **attrs)
            if not fut.done():
                fut.set_result(np.array(coords[offset : offset + n]))
            offset += n


class BatchingDispatcher(Coalescer):
    """The coalescer over a single inference thread (the thread sink).

    Parameters
    ----------
    localizer:
        A *fitted* localizer. Batch-safe ones (``BatchedLocalizer``)
        get micro-batching; sequential decoders get ordered per-request
        dispatch.
    batch_window_ms / max_batch:
        The :class:`Coalescer` flush policy.
    chunk_size:
        Forwarded to ``predict_batched`` — caps rows per inference
        block; changes peak memory, never values.
    metrics:
        The registry every count behind the server's ``/healthz``,
        ``/models`` and ``/metrics`` lives in; a fresh one when not
        supplied. Pass ``MetricsRegistry(enabled=False)`` to run with
        no-op instrumentation (every count then reads 0).
    slot:
        The :class:`Coalescer` label (fleet slots).
    """

    def __init__(
        self,
        localizer: Localizer,
        *,
        batch_window_ms: float = 2.0,
        max_batch: int = 256,
        chunk_size: int | None = None,
        metrics: MetricsRegistry | None = None,
        slot: str | None = None,
    ) -> None:
        super().__init__(
            self._compute,
            batched=isinstance(localizer, BatchedLocalizer),
            metrics=metrics if metrics is not None else MetricsRegistry(),
            batch_window_ms=batch_window_ms,
            max_batch=max_batch,
            slot=slot,
        )
        self._m_shard_batches = self._counter(
            "shard_grouped_batches", "Flushes regrouped by probed shard before inference"
        )
        self._m_shard_groups = self._counter(
            "shard_groups", "Distinct probed shards across regrouped flushes"
        )
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.localizer = localizer
        self.chunk_size = chunk_size
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-predict"
        )

    def close(self) -> None:
        """Fail pending requests and release the inference thread."""
        super().close()
        self._executor.shutdown(wait=False)

    def _compute(self, matrix: np.ndarray) -> asyncio.Future:
        # Submitted synchronously at flush time: the single worker runs
        # flushes (and sequential requests) in launch order.
        return asyncio.get_running_loop().run_in_executor(
            self._executor, self._predict, matrix
        )

    def _predict(self, matrix: np.ndarray) -> np.ndarray:
        """Run one flush, regrouped by probed shard when possible.

        Sequential decoders get plain ``predict`` (one request's rows,
        one ordered walk). Models serving a sharded radio map expose
        ``shard_routes``; the coalesced rows are then sorted by their
        primary probed shard and the predictions scattered back to
        arrival order. The KNN head already groups queries by probe set
        order-independently, so this is an *observability* move, not a
        throughput one: it feeds the
        ``repro_dispatch_shard_grouped_batches_total``/
        ``repro_dispatch_shard_groups_total`` counters (how
        shard-concentrated live traffic is — the signal for sizing
        ``n_probe`` and future shard-local model placement) and hands
        the model a deterministic shard-major row order. Routing costs one extra pass per flush: a
        ``(rows, n_shards)`` centroid block for KNN, plus a repeated
        imputation for LT-KNN (its routes are defined over imputed
        scans) — acceptable at flush granularity, but the reason routing
        is a per-model opt-in (``shard_routes`` returning ``None`` skips
        all of it). Because ``predict`` is row-independent (the
        ``BatchedLocalizer`` contract), answers are bit-identical to the
        unsorted dispatch.
        """
        if not self.batched:
            return self.localizer.predict(matrix)
        if matrix.shape[0] > 1:
            routes = self.localizer.shard_routes(matrix)
            if routes is not None:
                n_groups = int(np.unique(routes).size)
                if n_groups > 1:
                    order = np.argsort(routes, kind="stable")
                    out = np.empty((matrix.shape[0], 2), dtype=np.float64)
                    out[order] = self.localizer.predict_batched(
                        matrix[order], chunk_size=self.chunk_size
                    )
                    self._m_shard_batches.inc()
                    self._m_shard_groups.inc(n_groups)
                    return out
        return self.localizer.predict_batched(
            matrix, chunk_size=self.chunk_size
        )
