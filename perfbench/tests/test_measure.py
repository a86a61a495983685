"""Percentile, /metrics-delta and self-time helpers of the benchmark.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import measure  # noqa: E402

from repro.obs import MetricsRegistry  # noqa: E402


def test_percentile_matches_numpy_and_empty_is_zero():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 90) == pytest.approx(np.percentile(values, 90))
    assert measure.percentile([], 99) == 0.0


@pytest.mark.parametrize(
    ("n", "supported"), [(999, False), (1000, True), (1001, True), (5000, True)]
)
def test_p99_needs_ten_samples_beyond_it(n, supported):
    values = np.arange(n, dtype=float)
    value, beyond = measure.tail_percentile(values, 99)
    assert value in values
    assert beyond == int((values > value).sum())
    assert (beyond >= measure.MIN_BEYOND) is supported


def test_ties_at_the_percentile_do_not_count_as_beyond():
    values = [1.0] * 990 + [2.0] * 10
    value, beyond = measure.tail_percentile(values, 99)
    assert value == 1.0
    assert beyond == 10
    assert measure.tail_percentile([1.0] * 2000, 99) == (1.0, 0)


def test_min_samples_for_is_the_supporting_threshold():
    for q in (50.0, 90.0, 95.0, 99.0):
        n = measure.min_samples_for(q)
        assert measure.tail_percentile(np.arange(n, dtype=float), q)[1] == measure.MIN_BEYOND
        assert measure.tail_percentile(np.arange(n - 1, dtype=float), q)[1] < measure.MIN_BEYOND
    assert measure.min_samples_for(99.0) == 1000


def _exposition(registry: MetricsRegistry) -> measure.Samples:
    return measure.scrape_samples(registry.snapshot().to_text())


def test_deltas_of_counters_and_histograms_across_a_window():
    registry = MetricsRegistry()
    rows = registry.counter("rows_total", "rows", ("slot",))
    seconds = registry.histogram("work_seconds", "work", ("endpoint",))
    rows.labels("a").inc(5)
    seconds.labels("/localize").observe(0.5)
    before = _exposition(registry)
    rows.labels("a").inc(3)
    rows.labels("b").inc(2)  # a series born inside the window
    seconds.labels("/localize").observe(0.25)
    seconds.labels("/localize").observe(0.75)
    seconds.labels("/healthz").observe(9.0)
    d = measure.delta(before, _exposition(registry))

    assert measure.total(d, "rows_total") == 5
    assert measure.total(d, "rows_total", lambda labels: labels["slot"] == "a") == 3
    on_localize = lambda labels: labels["endpoint"] == "/localize"  # noqa: E731
    assert measure.total(d, "work_seconds_count", on_localize) == 2
    assert measure.histogram_mean(d, "work_seconds", on_localize) == pytest.approx(0.5)
    assert measure.histogram_mean(d, "missing_seconds") == 0.0


def test_scrape_rejects_a_malformed_exposition():
    with pytest.raises(ValueError):
        measure.scrape_samples("rows_total 3\n")  # sample before its TYPE


def test_covered_length_merges_overlaps():
    assert measure.covered_length([]) == 0.0
    assert measure.covered_length([(0, 1), (2, 3)]) == 2
    assert measure.covered_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert measure.covered_length([(0, 4), (1, 2)]) == 4


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "request", "start": 0.0, "end": 10.0, "parent": None},
        # Two overlapping children cover 1..6; one spills past the parent.
        {"id": 2, "name": "decode", "start": 1.0, "end": 4.0, "parent": 1},
        {"id": 3, "name": "route", "start": 3.0, "end": 6.0, "parent": 1},
        {"id": 4, "name": "encode", "start": 9.0, "end": 12.0, "parent": 1},
        {"id": 5, "name": "inner", "start": 1.5, "end": 2.0, "parent": 2},
    ]
    table = measure.self_times(spans)
    assert table["request"]["self_s"] == pytest.approx(10 - 5 - 1)
    assert table["decode"]["self_s"] == pytest.approx(2.5)
    assert table["route"]["self_s"] == pytest.approx(3.0)
    assert table["encode"]["total_s"] == pytest.approx(3.0)
    assert table["request"]["count"] == 1
