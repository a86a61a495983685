"""The arithmetic behind every reported number.

* Latency percentiles with the tail rule: a percentile is *supported*
  only when at least :data:`MIN_BEYOND` samples lie strictly beyond it,
  so a p99 always rests on at least ten slow requests.
* Prometheus text deltas: ``/metrics`` is scraped before and after a
  measured window and the per-sample differences are what the window
  did. Counters and histogram ``_sum``/``_count``/``_bucket`` series
  are cumulative, so their deltas are exact; gauges are not deltas and
  are never read through these helpers.
* Span self time: a span's duration minus the part of its interval its
  child spans cover.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

import numpy as np

from repro.obs import parse_prometheus_text

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated; 0.0 when empty."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        return 0.0
    return float(np.percentile(data, q))


def tail_percentile(values: Iterable[float], q: float) -> tuple[float, int]:
    """``(percentile, samples strictly beyond it)`` for ``q`` in 0..100.

    Nearest rank (a measured sample, never an interpolation), so with
    ``n`` distinct samples exactly ``n - ceil(q n / 100)`` lie beyond.
    """
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        return 0.0, 0
    value = float(np.percentile(data, q, method="inverted_cdf"))
    return value, int((data > value).sum())


def min_samples_for(q: float) -> int:
    """Fewest samples for which the ``q``-th percentile can be supported."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q))


# -- /metrics deltas ----------------------------------------------------------

Samples = dict[tuple[str, tuple], float]


def scrape_samples(text: str) -> Samples:
    """Flatten a (validated) Prometheus text exposition into samples.

    Keys are ``(sample_name, ((label, value), ...))`` exactly as
    :func:`repro.obs.parse_prometheus_text` yields them.
    """
    samples: Samples = {}
    for family in parse_prometheus_text(text).values():
        samples.update(family["samples"])
    return samples


def delta(before: Samples, after: Samples) -> Samples:
    """Per-sample ``after - before``; series born in the window start at 0."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def total(
    samples: Samples,
    name: str,
    where: Callable[[dict], bool] | None = None,
) -> float:
    """Sum of every sample called ``name`` whose labels pass ``where``."""
    out = 0.0
    for (sample_name, labels), value in samples.items():
        if sample_name == name and (where is None or where(dict(labels))):
            out += value
    return out


def histogram_mean(
    samples: Samples,
    family: str,
    where: Callable[[dict], bool] | None = None,
) -> float:
    """Mean observation of a histogram family (``_sum / _count``); 0.0 if empty."""
    count = total(samples, family + "_count", where)
    return total(samples, family + "_sum", where) / count if count else 0.0


# -- spans ----------------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    length = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                length += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        length += cur_end - cur_start
    return length


def self_times(spans: Iterable[dict]) -> dict[str, dict]:
    """Per span name: ``{"count", "total_s", "self_s"}``.

    ``spans`` are dicts with ``id``, ``name``, ``start``, ``end`` and
    ``parent`` (a span id or ``None``). Child intervals are clipped to
    their parent's before the union is taken.
    """
    spans = list(spans)
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    table: dict[str, dict] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = covered_length(
            (max(c["start"], start), min(c["end"], end))
            for c in children.get(span["id"], ())
            if c["end"] > start and c["start"] < end
        )
        row = table.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered
    return table
