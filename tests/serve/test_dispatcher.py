"""Micro-batching: coalescing, bit-identity, GIFT fallback, both sinks.

Tests taking ``make_slot`` run the coalescer's semantics over both
compute sinks: the inference thread (``BatchingDispatcher``) and a
one-slot ``WorkerPool`` (a worker process's pipe).
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fleet.worker import WorkerPool
from repro.serve import BatchingDispatcher


def _gather(dispatcher, rows):
    """Submit every row as its own concurrent request; stack the answers."""

    async def go():
        try:
            results = await asyncio.gather(
                *[dispatcher.localize(row) for row in rows]
            )
            return np.vstack(results)
        finally:
            dispatcher.close()

    return asyncio.run(go())


SLOT = "S/f0"


@pytest.fixture(params=["thread", "worker"])
def make_slot(request):
    """Build a coalescer over either sink; closes everything it built.

    ``thread`` is a ``BatchingDispatcher``; ``worker`` is the coalescer
    a one-worker ``WorkerPool`` keeps for its only slot.
    """
    owners = []

    def make(entry, **knobs):
        if request.param == "thread":
            owners.append(BatchingDispatcher(entry.localizer, **knobs))
            return owners[-1]
        # The registry surface WorkerPool reads: one slot, one entry.
        slot = SimpleNamespace(slot=SimpleNamespace(label=SLOT), entry=entry)
        registry = SimpleNamespace(slots=lambda: [slot])
        owners.append(WorkerPool(registry, workers=1, **knobs))
        return owners[-1]._coalescers[SLOT]

    yield make
    for owner in owners:
        owner.close()


def _submit_all(slot, requests):
    """Submit each request concurrently; answers or exceptions, in order."""

    async def go():
        return await asyncio.wait_for(
            asyncio.gather(
                *[slot.localize(rows) for rows in requests], return_exceptions=True
            ),
            timeout=60.0,
        )

    return asyncio.run(go())


class TestMicroBatching:
    def test_coalesced_equals_batched_bit_identically(
        self, knn_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=50.0, max_batch=1024
        )
        out = _gather(dispatcher, query_rows)
        reference = knn_entry.localizer.predict_batched(query_rows)
        np.testing.assert_array_equal(out, reference)

    def test_concurrent_requests_actually_coalesce(
        self, knn_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=50.0, max_batch=1024
        )
        _gather(dispatcher, query_rows)
        stats = dispatcher.stats()
        assert stats["requests"] == len(query_rows)
        assert stats["rows"] == len(query_rows)
        assert stats["batches"] < stats["requests"]
        assert stats["rows"] / stats["batches"] > 1.0

    def test_max_batch_bounds_coalescing(self, make_slot, knn_entry, query_rows):
        slot = make_slot(knn_entry, batch_window_ms=50.0, max_batch=8)
        out = _submit_all(slot, query_rows)
        np.testing.assert_array_equal(
            np.vstack(out), knn_entry.localizer.predict_batched(query_rows)
        )
        stats = slot.stats()
        assert stats["max_batch_rows"] == 8
        assert stats["batches"] == len(query_rows) // 8
        assert stats["rows"] == len(query_rows)

    def test_max_batch_one_is_per_request_dispatch(
        self, make_slot, knn_entry, query_rows
    ):
        slot = make_slot(knn_entry, batch_window_ms=50.0, max_batch=1)
        rows = query_rows[:10]
        out = _submit_all(slot, rows)
        np.testing.assert_array_equal(
            np.vstack(out), knn_entry.localizer.predict_batched(rows)
        )
        assert slot.stats()["batches"] == len(rows)
        assert slot.stats()["max_batch_rows"] == 1

    def test_drain_completes_in_flight_and_pending(
        self, make_slot, knn_entry, query_rows
    ):
        slot = make_slot(knn_entry, batch_window_ms=10_000.0, max_batch=4)

        async def go():
            tasks = [
                asyncio.ensure_future(slot.localize(row)) for row in query_rows[:6]
            ]
            await asyncio.sleep(0)  # one flush in flight, two rows pending
            await asyncio.wait_for(slot.drain(), timeout=60.0)
            assert all(task.done() for task in tasks)
            return [task.result() for task in tasks]

        out = asyncio.run(go())
        np.testing.assert_array_equal(
            np.vstack(out), knn_entry.localizer.predict_batched(query_rows[:6])
        )
        assert slot.stats()["batches"] == 2

    def test_multi_row_request_rides_one_batch(self, knn_entry, query_rows):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=50.0, max_batch=1024
        )

        async def go():
            try:
                single, batch = await asyncio.gather(
                    dispatcher.localize(query_rows[0]),
                    dispatcher.localize(query_rows[1:5]),
                )
                return single, batch
            finally:
                dispatcher.close()

        single, batch = asyncio.run(go())
        assert single.shape == (1, 2)
        assert batch.shape == (4, 2)
        np.testing.assert_array_equal(
            np.vstack([single, batch]),
            knn_entry.localizer.predict_batched(query_rows[:5]),
        )
        assert dispatcher.stats()["batches"] == 1

    def test_chunk_size_does_not_change_values(self, knn_entry, query_rows):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer,
            batch_window_ms=50.0,
            max_batch=1024,
            chunk_size=7,
        )
        out = _gather(dispatcher, query_rows)
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows)
        )


class TestSequentialFallback:
    def test_gift_dispatches_per_request(self, make_slot, gift_entry, query_rows):
        slot = make_slot(gift_entry, batch_window_ms=50.0, max_batch=1024)
        # Multi-row requests: each must stay one ordered walk.
        walks = [query_rows[i : i + 3] for i in range(0, 24, 3)]
        out = _submit_all(slot, walks)
        # GIFT keeps no cross-call state, so per-request dispatch equals
        # predicting each walk alone, in any order.
        for walk, answer in zip(walks, out):
            np.testing.assert_array_equal(answer, gift_entry.localizer.predict(walk))
        stats = slot.stats()
        assert stats["sequential_requests"] == len(walks)
        # No cross-request coalescing on the sequential path.
        assert stats["batches"] == len(walks)
        assert stats["max_batch_rows"] == 3

    def test_gift_multi_row_request_stays_one_walk(
        self, gift_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(gift_entry.localizer)
        walk = query_rows[:6]

        async def go():
            try:
                return await dispatcher.localize(walk)
            finally:
                dispatcher.close()

        out = asyncio.run(go())
        np.testing.assert_array_equal(out, gift_entry.localizer.predict(walk))


class TestErrors:
    def test_bad_shape_raises_without_poisoning_dispatcher(
        self, knn_entry, query_rows
    ):
        dispatcher = BatchingDispatcher(
            knn_entry.localizer, batch_window_ms=1.0
        )

        async def go():
            try:
                with pytest.raises(ValueError):
                    await dispatcher.localize(np.zeros(3))  # wrong n_aps
                return await dispatcher.localize(query_rows[0])
            finally:
                dispatcher.close()

        out = asyncio.run(go())
        np.testing.assert_array_equal(
            out, knn_entry.localizer.predict_batched(query_rows[:1])
        )
        assert dispatcher.stats()["errors"] == 1

    def test_failure_fans_out_to_whole_batch(self, make_slot, knn_entry, query_rows):
        slot = make_slot(knn_entry, batch_window_ms=50.0, max_batch=1024)
        # Consistent (wrong) widths coalesce fine; the sink then raises
        # once for the flush and every co-batched request sees it.
        bad = np.zeros((6, query_rows.shape[1] + 1))
        out = _submit_all(slot, bad)
        assert all(isinstance(result, Exception) for result in out)
        assert len({str(result) for result in out}) == 1
        stats = slot.stats()
        assert stats["errors"] == len(bad)
        assert stats["batches"] == 0
        # The slot is not poisoned: the next flush answers normally.
        (good,) = _submit_all(slot, query_rows[:1])
        np.testing.assert_array_equal(
            good, knn_entry.localizer.predict_batched(query_rows[:1])
        )

    def test_empty_request_rejected(self, knn_entry, tiny_suite):
        dispatcher = BatchingDispatcher(knn_entry.localizer)

        async def go():
            try:
                await dispatcher.localize(
                    np.empty((0, tiny_suite.n_aps))
                )
            finally:
                dispatcher.close()

        with pytest.raises(ValueError):
            asyncio.run(go())

    def test_invalid_settings_rejected(self, knn_entry):
        with pytest.raises(ValueError):
            BatchingDispatcher(knn_entry.localizer, batch_window_ms=-1.0)
        with pytest.raises(ValueError):
            BatchingDispatcher(knn_entry.localizer, max_batch=0)
        with pytest.raises(ValueError):
            BatchingDispatcher(knn_entry.localizer, chunk_size=0)

    def test_closed_dispatcher_rejects_requests(self, knn_entry, query_rows):
        dispatcher = BatchingDispatcher(knn_entry.localizer)
        dispatcher.close()

        async def go():
            await dispatcher.localize(query_rows[0])

        with pytest.raises(RuntimeError, match="closed"):
            asyncio.run(go())

