"""Metrics registry: families, snapshots, merges, exposition, threads."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    histogram_percentile,
    parse_prometheus_text,
)


class TestFamilies:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "things")
        c.inc()
        c.inc(2.5)
        snap = reg.snapshot()
        assert snap.metrics["x_total"]["children"][()] == 3.5

    def test_gauge_sets_and_moves(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "queue depth")
        g.set(7)
        g.inc(3)
        g.dec(1)
        assert reg.snapshot().metrics["depth"]["children"][()] == 9.0

    def test_labeled_children_are_distinct(self):
        reg = MetricsRegistry()
        c = reg.counter("rows_total", "rows", ("slot",))
        c.labels("a").inc(2)
        c.labels("b").inc(5)
        children = reg.snapshot().metrics["rows_total"]["children"]
        assert children[("a",)] == 2.0
        assert children[("b",)] == 5.0

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        data = reg.snapshot().metrics["lat"]["children"][()]
        assert data["counts"] == [1, 1, 1]  # <=1, <=2, +Inf overflow
        assert data["count"] == 3
        assert data["sum"] == pytest.approx(101.0)

    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "things")
        b = reg.counter("x_total", "things")
        assert a is b

    def test_shape_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "things")
        with pytest.raises(ValueError):
            reg.gauge("x_total", "things")
        with pytest.raises(ValueError):
            reg.counter("x_total", "things", ("slot",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name", "nope")
        with pytest.raises(ValueError):
            reg.counter("ok_total", "nope", ("__reserved",))

    def test_disabled_registry_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x_total", "things")
        h = reg.histogram("lat", "latency")
        c.inc()
        h.observe(1.0)
        snap = reg.snapshot()
        assert snap.metrics["x_total"]["children"] == {}
        assert snap.metrics["lat"]["children"] == {}

    def test_gauge_set_max_is_a_high_water_mark(self):
        reg = MetricsRegistry()
        g = reg.gauge("max_rows", "largest flush", ("slot",)).labels("a")
        for value in (3, 8, 5):
            g.set_max(value)
        assert reg.snapshot().value("max_rows", "a") == 8.0
        MetricsRegistry(enabled=False).gauge("max_rows").labels().set_max(1)


class TestSnapshotReads:
    def test_value_reads_zero_until_recorded(self):
        reg = MetricsRegistry()
        c = reg.counter("rows_total", "rows", ("slot",))
        c.labels("a").inc(4)
        snap = reg.snapshot()
        assert snap.value("rows_total", "a") == 4.0
        assert snap.value("rows_total", "b") == 0.0
        assert snap.value("no_such_total", "a") == 0.0

    def test_total_sums_every_series(self):
        reg = MetricsRegistry()
        c = reg.counter("rows_total", "rows", ("slot",))
        c.labels("a").inc(4)
        c.labels("b").inc(6)
        snap = reg.snapshot()
        assert snap.total("rows_total") == 10.0
        assert snap.total("no_such_total") == 0.0


class TestThreadedExactness:
    """Parallel recording must lose nothing: counts and sums are exact."""

    def test_counter_exact_under_contention(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "hits", ("worker",))
        n_threads, n_iter = 8, 2_000

        def worker(i):
            child = c.labels(str(i % 2))
            for _ in range(n_iter):
                child.inc()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        children = reg.snapshot().metrics["hits_total"]["children"]
        assert children[("0",)] + children[("1",)] == n_threads * n_iter

    def test_histogram_count_and_sum_exact_under_contention(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "latency", buckets=(0.001, 0.01, 0.1))
        n_threads, n_iter = 8, 2_000
        value = 0.005

        def worker():
            for _ in range(n_iter):
                h.observe(value)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        data = reg.snapshot().metrics["lat"]["children"][()]
        total = n_threads * n_iter
        assert data["count"] == total
        assert sum(data["counts"]) == total
        assert data["counts"][1] == total  # every observation in (0.001, 0.01]
        assert data["sum"] == pytest.approx(total * value)


class TestMergeExactness:
    def test_counters_and_histograms_sum(self):
        def one(inc, obs):
            reg = MetricsRegistry()
            reg.counter("n_total", "n").inc(inc)
            h = reg.histogram("lat", "l", buckets=(1.0, 2.0))
            for v in obs:
                h.observe(v)
            return reg.snapshot()

        merged = one(3, [0.5, 1.5])
        merged.merge(one(4, [5.0]))
        assert merged.metrics["n_total"]["children"][()] == 7.0
        data = merged.metrics["lat"]["children"][()]
        assert data["counts"] == [1, 1, 1]
        assert data["count"] == 3
        assert data["sum"] == pytest.approx(7.0)

    def test_unknown_families_copy_over(self):
        a = MetricsRegistry().snapshot()
        b_reg = MetricsRegistry()
        b_reg.counter("only_in_b_total", "b").inc(2)
        a.merge(b_reg.snapshot())
        assert a.metrics["only_in_b_total"]["children"][()] == 2.0

    def test_merge_is_deep_copy(self):
        b_reg = MetricsRegistry()
        b_reg.histogram("lat", "l", buckets=(1.0,)).observe(0.5)
        theirs = b_reg.snapshot()
        mine = MetricsSnapshot()
        mine.merge(theirs)
        mine.metrics["lat"]["children"][()]["counts"][0] += 100
        assert theirs.metrics["lat"]["children"][()]["counts"][0] == 1

    def test_kind_mismatch_raises(self):
        a_reg = MetricsRegistry()
        a_reg.counter("x", "a")
        b_reg = MetricsRegistry()
        b_reg.gauge("x", "b")
        with pytest.raises(ValueError):
            a_reg.snapshot().merge(b_reg.snapshot())

    def test_bucket_mismatch_raises(self):
        a_reg = MetricsRegistry()
        a_reg.histogram("lat", "l", buckets=(1.0,)).observe(0.5)
        b_reg = MetricsRegistry()
        b_reg.histogram("lat", "l", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a_reg.snapshot().merge(b_reg.snapshot())


class TestExposition:
    def _populated_registry(self):
        reg = MetricsRegistry()
        reg.counter("repro_requests_total", "requests", ("endpoint",)).labels(
            "/localize"
        ).inc(3)
        reg.gauge("repro_pending_rows", "pending").set(2)
        h = reg.histogram(
            "repro_latency_seconds", "latency", buckets=DEFAULT_LATENCY_BUCKETS
        )
        for v in (0.0004, 0.003, 0.2, 42.0):
            h.observe(v)
        return reg

    def test_text_parses_as_valid_prometheus(self):
        text = self._populated_registry().snapshot().to_text()
        families = parse_prometheus_text(text)
        assert families["repro_requests_total"]["type"] == "counter"
        assert families["repro_pending_rows"]["type"] == "gauge"
        assert families["repro_latency_seconds"]["type"] == "histogram"

    def test_histogram_samples_are_cumulative_with_inf(self):
        text = self._populated_registry().snapshot().to_text()
        families = parse_prometheus_text(text)
        samples = families["repro_latency_seconds"]["samples"]
        inf_key = ("repro_latency_seconds_bucket", (("le", "+Inf"),))
        count_key = ("repro_latency_seconds_count", ())
        assert samples[inf_key] == 4.0
        assert samples[count_key] == 4.0

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", ("path",)).labels('a"b\\c\nd').inc()
        text = reg.snapshot().to_text()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        parse_prometheus_text(text)  # must stay parseable

    def test_parser_rejects_non_cumulative_buckets(self):
        bad = "\n".join(
            [
                "# TYPE lat histogram",
                'lat_bucket{le="1.0"} 5',
                'lat_bucket{le="+Inf"} 3',
                "lat_sum 1.0",
                "lat_count 3",
            ]
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_parser_rejects_missing_inf(self):
        bad = "\n".join(
            [
                "# TYPE lat histogram",
                'lat_bucket{le="1.0"} 3',
                "lat_sum 1.0",
                "lat_count 3",
            ]
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_parser_rejects_garbage_line(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not a sample\n")


class TestHistogramPercentile:
    def test_interpolates_within_bucket(self):
        data = {"buckets": (1.0, 2.0), "counts": [10, 10, 0], "count": 20}
        assert histogram_percentile(data, 0.5) == pytest.approx(1.0)
        assert histogram_percentile(data, 0.75) == pytest.approx(1.5)

    def test_overflow_reports_top_bound(self):
        data = {"buckets": (1.0, 2.0), "counts": [0, 0, 5], "count": 5}
        assert histogram_percentile(data, 0.5) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        data = {"buckets": (1.0,), "counts": [0, 0], "count": 0}
        assert histogram_percentile(data, 0.5) == 0.0

    def test_rejects_bad_q(self):
        data = {"buckets": (1.0,), "counts": [1, 0], "count": 1}
        with pytest.raises(ValueError):
            histogram_percentile(data, 1.0)
