"""FleetDispatcher: coalescing identity, bounded admission, counters."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.fleet import FleetDispatcher, FleetOverloadError
from repro.fleet.frontend import fleet_stats

from .conftest import direct_slot_predictions


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def dispatcher(fleet_registry):
    d = FleetDispatcher(fleet_registry, batch_window_ms=1.0)
    yield d
    d.close()


class TestDispatchIdentity:
    def test_concurrent_requests_bit_identical_to_direct(
        self, fleet_registry, dispatcher, fleet_traffic
    ):
        scans = fleet_traffic[0][:48]

        async def go():
            chunks = [scans[i : i + 8] for i in range(0, scans.shape[0], 8)]
            return await asyncio.gather(
                *(dispatcher.localize(c) for c in chunks)
            )

        results = run(go())
        coords = np.vstack([c for c, _ in results])
        decision_b = np.concatenate([d.building_idx for _, d in results])
        decision_f = np.concatenate([d.floors for _, d in results])
        direct = direct_slot_predictions(
            fleet_registry, scans, decision_b, decision_f
        )
        np.testing.assert_array_equal(coords, direct)

    def test_forced_decision_respected(
        self, dispatcher, fleet_registry, fleet_traffic
    ):
        scans, true_b, true_f, _ = fleet_traffic

        async def go():
            decision = dispatcher.router.decide(true_b[:8], true_f[:8])
            return await dispatcher.localize(scans[:8], decision=decision)

        coords, decision = run(go())
        assert decision.forced
        direct = direct_slot_predictions(
            fleet_registry, scans[:8], true_b[:8], true_f[:8]
        )
        np.testing.assert_array_equal(coords, direct)


class TestBackpressure:
    def test_overload_rejects_without_corrupting_inflight(
        self, fleet_registry, fleet_traffic
    ):
        """Acceptance bar: 429-style rejection never touches admitted work."""
        scans = fleet_traffic[0]
        dispatcher = FleetDispatcher(
            fleet_registry, batch_window_ms=1.0, max_pending_rows=12
        )
        chunks = [scans[i * 6 : (i + 1) * 6] for i in range(6)]

        async def go():
            return await asyncio.gather(
                *(dispatcher.localize(c) for c in chunks),
                return_exceptions=True,
            )

        try:
            results = run(go())
            rejected = [r for r in results if isinstance(r, FleetOverloadError)]
            admitted = [r for r in results if not isinstance(r, Exception)]
            assert rejected, "overload never triggered"
            assert admitted, "every request was rejected"
            for result, chunk in zip(results, chunks):
                if isinstance(result, Exception):
                    continue
                coords, decision = result
                direct = direct_slot_predictions(
                    fleet_registry, chunk, decision.building_idx, decision.floors
                )
                np.testing.assert_array_equal(coords, direct)
            counts = fleet_stats(dispatcher.metrics.snapshot())
            assert counts["rejected_requests"] == len(rejected)
            # The queue drained: admission state is fully released.
            assert dispatcher.pending_rows == 0
        finally:
            dispatcher.close()

    def test_recovers_after_overload(self, fleet_registry, fleet_traffic):
        scans = fleet_traffic[0]
        dispatcher = FleetDispatcher(
            fleet_registry, batch_window_ms=0.0, max_pending_rows=4
        )

        async def go():
            # Two concurrent 3-row requests against a 4-row bound: the
            # second is rejected while the first is in flight...
            results = await asyncio.gather(
                dispatcher.localize(scans[:3]),
                dispatcher.localize(scans[3:6]),
                return_exceptions=True,
            )
            # ...and once the queue drains, the fleet serves again.
            coords, _ = await dispatcher.localize(scans[:3])
            return results, coords

        try:
            results, coords = run(go())
            kinds = [type(r).__name__ for r in results]
            assert kinds.count("FleetOverloadError") == 1
            assert coords.shape == (3, 2)
        finally:
            dispatcher.close()

    def test_unservable_batch_is_a_client_error_not_a_retry(
        self, fleet_registry, fleet_traffic
    ):
        # A single batch larger than the bound can never be admitted;
        # it must fail as a ValueError (HTTP 400), not a retryable 429.
        dispatcher = FleetDispatcher(fleet_registry, max_pending_rows=2)
        try:
            with pytest.raises(ValueError, match="never be admitted"):
                run(dispatcher.localize(fleet_traffic[0][:3]))
            counts = fleet_stats(dispatcher.metrics.snapshot())
            assert counts["requests"] == 0
            assert counts["rejected_requests"] == 0
        finally:
            dispatcher.close()


class TestCounters:
    def test_per_slot_rows_sum_to_admitted(self, dispatcher, fleet_traffic):
        scans = fleet_traffic[0][:40]
        run(dispatcher.localize(scans))
        snapshot = dispatcher.metrics.snapshot()
        slot_rows = sum(
            s["routing"]["rows"] for s in dispatcher.slot_stats(snapshot).values()
        )
        assert slot_rows == 40 == fleet_stats(snapshot)["rows"]
        assert fleet_stats(snapshot)["requests"] == 1

    def test_forced_rows_counted(self, dispatcher, fleet_traffic):
        scans, true_b, true_f, _ = fleet_traffic

        async def go():
            decision = dispatcher.router.decide(true_b[:5], true_f[:5])
            await dispatcher.localize(scans[:5], decision=decision)

        run(go())
        snapshot = dispatcher.metrics.snapshot()
        assert fleet_stats(snapshot)["forced_requests"] == 1
        forced = sum(
            s["routing"]["forced_rows"]
            for s in dispatcher.slot_stats(snapshot).values()
        )
        assert forced == 5

    def test_describe_shape(self, dispatcher):
        payload = dispatcher.describe(dispatcher.metrics.snapshot())
        assert payload["admission"]["pending_rows"] == 0
        assert set(payload["slots"]) == {
            "HQ/f0", "HQ/f1", "LAB/f0", "LAB/f1",
        }


class TestPinnedRouting:
    def test_building_and_floor_pin(self, dispatcher, fleet_registry, fleet_traffic):
        scans, true_b, true_f, _ = fleet_traffic
        rows = np.flatnonzero((true_b == 1) & (true_f == 0))[:5]
        coords, decision = run(
            dispatcher.localize(scans[rows], building="LAB", floor=0)
        )
        assert decision.forced
        direct = direct_slot_predictions(
            fleet_registry, scans[rows], true_b[rows], true_f[rows]
        )
        np.testing.assert_array_equal(coords, direct)

    def test_building_only_pin_classifies_floor(
        self, dispatcher, fleet_traffic
    ):
        scans, true_b, true_f, _ = fleet_traffic
        rows = np.flatnonzero(true_b == 0)[:6]
        _, decision = run(dispatcher.localize(scans[rows], building="HQ"))
        assert decision.forced
        assert (decision.floors == true_f[rows]).mean() > 0.9

    def test_unknown_pin_raises_and_releases_admission(
        self, dispatcher, fleet_traffic
    ):
        with pytest.raises(KeyError):
            run(dispatcher.localize(fleet_traffic[0][:2], building="ANNEX"))
        with pytest.raises(KeyError):
            run(
                dispatcher.localize(
                    fleet_traffic[0][:2], building="HQ", floor=9
                )
            )
        assert dispatcher.pending_rows == 0

    def test_decision_and_building_are_exclusive(
        self, dispatcher, fleet_traffic
    ):
        scans, true_b, true_f, _ = fleet_traffic
        decision = dispatcher.router.decide(true_b[:2], true_f[:2])
        with pytest.raises(ValueError, match="not both"):
            run(
                dispatcher.localize(
                    scans[:2], decision=decision, building="HQ"
                )
            )


class TestDecisionValidation:
    def test_hand_built_decision_with_unfitted_slot_rejected(
        self, dispatcher, fleet_traffic
    ):
        from repro.fleet import RoutingDecision

        decision = RoutingDecision(
            building_idx=np.array([0, 0]), floors=np.array([0, 99])
        )
        with pytest.raises(ValueError, match="outside the fleet"):
            run(dispatcher.localize(fleet_traffic[0][:2], decision=decision))
        # The reservation is released even on the error path.
        assert dispatcher.pending_rows == 0


class TestLifecycle:
    def test_closed_dispatcher_rejects(self, fleet_registry, fleet_traffic):
        dispatcher = FleetDispatcher(fleet_registry)
        dispatcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            run(dispatcher.localize(fleet_traffic[0][:1]))

    def test_bad_bound_rejected(self, fleet_registry):
        with pytest.raises(ValueError, match="max_pending_rows"):
            FleetDispatcher(fleet_registry, max_pending_rows=0)
