"""Atomic hot-swap: no mixed-version answers, unchanged slots untouched.

The property under test is the serving contract of the live loop: at
any instant during a refit + hot-swap, a batch answered for the swapped
slot is bit-identical to either the OLD model's direct answer or the
NEW model's direct answer — never a blend — and slots that were not
refit stay byte-for-byte unchanged.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetDispatcher
from repro.fleet.experiment import fleet_epoch_traffic
from repro.live import LiveManager

from .conftest import direct_answer, make_fleet, matches_exactly_one_version, run


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    # Shared across examples/tests: identical observation content makes
    # every repeat refit a store hit instead of a fresh fit.
    return tmp_path_factory.mktemp("models")


def _traffic(registry):
    scans, true_b, true_f, true_xy = fleet_epoch_traffic(registry, 1)
    mask = (true_b == 0) & (true_f == 0)
    return scans, scans[mask], true_xy[mask]


async def _interleave(registry, *, n_obs, probe_at, clients, post_rounds):
    """Swap HQ/f0 under concurrent traffic; returns the evidence."""
    all_scans, obs_scans, obs_xy = _traffic(registry)
    probe = all_scans[probe_at : probe_at + 8]
    v1 = direct_answer(registry, "HQ", 0, probe)
    f1_before = direct_answer(registry, "HQ", 1, probe)
    version_before = registry.slot("HQ", 0).version

    dispatcher = FleetDispatcher(registry, batch_window_ms=0.5)
    live = LiveManager(dispatcher)
    answers = {0: [], 1: []}
    dropped = 0
    swapped = asyncio.Event()

    async def client(floor):
        nonlocal dropped
        post = 0
        while post < post_rounds:
            if swapped.is_set():
                post += 1
            try:
                coords, _ = await dispatcher.localize(
                    probe, building="HQ", floor=floor
                )
            except Exception:
                dropped += 1
                continue
            answers[floor].append(np.asarray(coords))

    tasks = [
        asyncio.create_task(client(floor))
        for floor in (0, 1)
        for _ in range(clients)
    ]
    await live.observe(obs_scans[:n_obs], obs_xy[:n_obs], building="HQ", floor=0)
    summary = await live.refit_now("HQ", 0)
    swapped.set()
    await asyncio.gather(*tasks)

    v2 = direct_answer(registry, "HQ", 0, probe)
    f1_after = direct_answer(registry, "HQ", 1, probe)
    version_after = registry.slot("HQ", 0).version
    live.close()
    dispatcher.close()
    return {
        "answers": answers,
        "dropped": dropped,
        "summary": summary,
        "v1": v1,
        "v2": v2,
        "f1_before": f1_before,
        "f1_after": f1_after,
        "versions": (version_before, version_after),
    }


class TestSwapAtomicity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        n_obs=st.integers(min_value=32, max_value=64),
        probe_at=st.integers(min_value=0, max_value=40),
        clients=st.integers(min_value=1, max_value=3),
        post_rounds=st.integers(min_value=1, max_value=3),
    )
    def test_no_mixed_version_answers(
        self, store_dir, n_obs, probe_at, clients, post_rounds
    ):
        registry = make_fleet(store_dir)
        out = run(
            _interleave(
                registry,
                n_obs=n_obs,
                probe_at=probe_at,
                clients=clients,
                post_rounds=post_rounds,
            )
        )
        assert out["dropped"] == 0
        # The refit genuinely changed the model, so v1 vs v2 answers
        # are distinguishable and the property below is non-vacuous.
        assert not np.array_equal(out["v1"], out["v2"])
        for coords in out["answers"][0]:
            assert matches_exactly_one_version(coords, out["v1"], out["v2"])
        # Post-swap answers exist and the tail of the stream is v2.
        assert matches_exactly_one_version(out["answers"][0][-1], out["v2"], out["v2"])
        # The slot that was never refit is bit-identical throughout.
        for coords in out["answers"][1]:
            assert np.array_equal(coords, out["f1_before"])
        assert np.array_equal(out["f1_before"], out["f1_after"])
        assert out["versions"][1] == out["versions"][0] + 1


class TestSwapBookkeeping:
    def test_swap_summary_and_state(self, live_fleet, labeled_traffic):
        scans, xy = labeled_traffic
        dispatcher = FleetDispatcher(live_fleet, batch_window_ms=0.5)
        live = LiveManager(dispatcher)

        async def go():
            await live.observe(scans[:40], xy[:40], building="HQ", floor=0)
            return await live.refit_now("HQ", 0)

        summary = run(go())
        assert summary["reason"] == "manual"
        assert summary["refit"]["n_observations"] == 40
        assert summary["refit"]["old_digest"] != summary["refit"]["new_digest"]
        state = live.state_for("HQ", 0)
        counts = live.describe(dispatcher.metrics.snapshot())["slots"]["HQ/f0"]
        assert counts["refits"] == 1
        assert counts["swaps"] == 1
        # The consumed rows cleared; the buffer is ready for the next cycle.
        assert state.buffer.n_rows == 0
        live.close()
        dispatcher.close()

    def test_refit_now_needs_evidence(self, live_fleet):
        dispatcher = FleetDispatcher(live_fleet, batch_window_ms=0.5)
        live = LiveManager(dispatcher)
        with pytest.raises(ValueError, match="no buffered observations"):
            run(live.refit_now("HQ", 0))
        live.close()
        dispatcher.close()

    def test_observations_during_refit_survive_swap(
        self, live_fleet, labeled_traffic
    ):
        scans, xy = labeled_traffic
        dispatcher = FleetDispatcher(live_fleet, batch_window_ms=0.5)
        live = LiveManager(dispatcher)

        async def go():
            await live.observe(scans[:40], xy[:40], building="HQ", floor=0)
            refit = asyncio.create_task(live.refit_now("HQ", 0))
            # Let the refit capture its 40-row snapshot (it reads the
            # buffer synchronously before its first await)...
            await asyncio.sleep(0)
            # ...then land more evidence while the fit is in flight.
            await live.observe(scans[40:44], xy[40:44], building="HQ", floor=0)
            await refit
            return live.state_for("HQ", 0).buffer.n_rows

        leftover = run(go())
        assert leftover == 4
        live.close()
        dispatcher.close()
