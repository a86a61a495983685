"""Process-local metrics registry with Prometheus text exposition.

Dependency-free observability primitives for the serving stack:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — labeled
  metric families. Children (one per label-value tuple) are cached on
  first use and updated under a per-child lock, so hot-path recording
  is one dict hit plus one locked float add — cheap enough for the
  serve hot path (``benchmarks/bench_obs.py`` pins the overhead at
  <= 5% of request p50).
* :class:`MetricsRegistry` — a named collection of metric families.
  ``registry.counter(name, ...)`` is idempotent (same name + same
  shape returns the existing family), so layers that are wired
  independently (HTTP server, dispatcher, worker pool) can share one
  registry without coordination. A registry built with
  ``enabled=False`` hands out no-op children — the metrics-off arm of
  the overhead bench, and the escape hatch for benchmarks that want
  zero instrumentation.
* :class:`MetricsSnapshot` — a picklable, mergeable copy of a
  registry's state. Fleet worker processes keep their own registries
  and ship snapshots back over the existing pipe protocol; the parent
  merges them into its own snapshot at ``/metrics`` scrape time
  (counters and histogram bins add, gauges add — worker gauges are
  per-process quantities like queue depths, so summing is the fleet
  view).
* :func:`MetricsSnapshot.to_text` — Prometheus text exposition
  (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, escaped label
  values, cumulative ``_bucket`` series with ``+Inf``, ``_sum`` and
  ``_count``. :func:`parse_prometheus_text` is the matching validating
  parser (tests and the bench use it to pin the format).

Metrics are strictly *off* the bit-identity invariant: nothing in this
module ever enters a fingerprint, cache key or model artifact.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

#: Default latency buckets, in seconds. Chosen for a serving stack
#: whose request latencies span ~0.2 ms (warm micro-batch hit) to
#: seconds (overloaded fleet): roughly logarithmic, 14 buckets.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in value)


def format_float(value: float) -> str:
    """Render a sample value the way Prometheus expects.

    Integral values print without a trailing ``.0`` (``17`` not
    ``17.0``); infinities as ``+Inf``/``-Inf``.
    """
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _NoopChild:
    """The child every disabled metric hands out — records nothing."""

    __slots__ = ()

    def _record(self, value: float = 1.0) -> None:
        pass

    inc = dec = set = set_max = observe = _record


_NOOP_CHILD = _NoopChild()


class _CounterChild:
    """One (label-values) cell of a counter family."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class _GaugeChild:
    """One cell of a gauge family (set/inc/dec)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the value to ``value`` if it is larger (a high-water mark)."""
        with self._lock:
            self.value = max(self.value, float(value))

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class _HistogramChild:
    """One cell of a histogram family: fixed buckets + sum + count."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.bounds = bounds
        # counts[i] observations in (bounds[i-1], bounds[i]];
        # counts[-1] is the +Inf overflow bin (non-cumulative).
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class _MetricFamily:
    """Shared plumbing: child cache keyed by label-value tuples."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002 - prometheus's own field name
        labelnames: tuple[str, ...] = (),
        *,
        enabled: bool = True,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._enabled = enabled
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _new_child(self):
        raise NotImplementedError

    def labels(self, *values):
        """The child cell for these label values (created on first use)."""
        if not self._enabled:
            return _NOOP_CHILD
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"values {self.labelnames}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_child())
        return child

    @property
    def _default(self):
        """The label-less cell (only valid when labelnames is empty)."""
        return self.labels()

    def _child_data(self, child):
        raise NotImplementedError

    def snapshot_children(self) -> dict:
        return {
            key: self._child_data(child)
            for key, child in sorted(self._children.items())
        }


class Counter(_MetricFamily):
    """Monotonically increasing count (events, rows, errors)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def _child_data(self, child: _CounterChild) -> float:
        with child._lock:
            return child.value


class Gauge(_MetricFamily):
    """A value that goes up and down (queue depth, liveness)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    def _child_data(self, child: _GaugeChild) -> float:
        with child._lock:
            return child.value


class Histogram(_MetricFamily):
    """Fixed-bucket distribution (latencies, batch sizes).

    ``buckets`` are strictly increasing finite upper bounds; an
    implicit ``+Inf`` bucket catches the overflow. The same bucket
    schema is reused by the load generator's latency report so stress
    runs and live ``/metrics`` scrapes are directly comparable.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: tuple[str, ...] = (),
        *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        enabled: bool = True,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        super().__init__(name, help, labelnames, enabled=enabled)
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    def _child_data(self, child: _HistogramChild) -> dict:
        with child._lock:
            return {
                "buckets": self.buckets,
                "counts": list(child.counts),
                "sum": child.sum,
                "count": child.count,
            }


def histogram_percentile(data: dict, q: float) -> float:
    """Estimate the ``q``-quantile (``0 < q < 1``) from histogram data.

    ``data`` is the snapshot form (``buckets``/``counts``/``count``).
    Linear interpolation inside the containing bucket; observations in
    the ``+Inf`` overflow bin report the last finite bound (the
    histogram cannot resolve beyond its top bucket). Returns ``0.0``
    for an empty histogram.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    total = data["count"]
    if total == 0:
        return 0.0
    bounds = data["buckets"]
    counts = data["counts"]
    rank = q * total
    cumulative = 0.0
    for i, n in enumerate(counts):
        if n == 0:
            continue
        if cumulative + n >= rank:
            if i >= len(bounds):
                return float(bounds[-1])
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            fraction = (rank - cumulative) / n
            return float(lower + (upper - lower) * fraction)
        cumulative += n
    return float(bounds[-1])


@dataclass
class MetricsSnapshot:
    """A frozen, picklable, mergeable copy of a registry's state.

    ``metrics`` maps family name to ``{"kind", "help", "labelnames",
    "children"}`` where ``children`` maps label-value tuples to plain
    values (counter/gauge) or histogram data dicts. Everything inside
    is builtin types, so a snapshot crosses the fleet's worker pipes
    as-is.
    """

    metrics: dict = field(default_factory=dict)

    def merge(self, other: MetricsSnapshot) -> MetricsSnapshot:
        """Fold ``other`` into this snapshot (sums, in place).

        Counters and histogram bins add; gauges add too — a worker's
        gauge is a per-process quantity (its share of queue depth,
        resident rows), so the fleet-level value is the sum. Families
        unknown to ``self`` are copied over; mismatched kinds or
        bucket schemas raise rather than silently corrupting.
        """
        for name, theirs in other.metrics.items():
            mine = self.metrics.get(name)
            if mine is None:
                self.metrics[name] = {
                    "kind": theirs["kind"],
                    "help": theirs["help"],
                    "labelnames": tuple(theirs["labelnames"]),
                    "children": {
                        key: _copy_child(value)
                        for key, value in theirs["children"].items()
                    },
                }
                continue
            if mine["kind"] != theirs["kind"]:
                raise ValueError(
                    f"cannot merge {name!r}: kind {mine['kind']} vs "
                    f"{theirs['kind']}"
                )
            if tuple(mine["labelnames"]) != tuple(theirs["labelnames"]):
                raise ValueError(
                    f"cannot merge {name!r}: label names differ"
                )
            children = mine["children"]
            for key, value in theirs["children"].items():
                held = children.get(key)
                if held is None:
                    children[key] = _copy_child(value)
                elif isinstance(held, dict):
                    if tuple(held["buckets"]) != tuple(value["buckets"]):
                        raise ValueError(
                            f"cannot merge {name!r}: bucket schemas differ"
                        )
                    held["counts"] = [
                        a + b for a, b in zip(held["counts"], value["counts"])
                    ]
                    held["sum"] += value["sum"]
                    held["count"] += value["count"]
                else:
                    children[key] = held + value
        return self

    def value(self, name: str, *labels: str) -> float:
        """One counter/gauge series; ``0.0`` until it has been recorded."""
        family = self.metrics.get(name)
        return 0.0 if family is None else family["children"].get(tuple(labels), 0.0)

    def total(self, name: str) -> float:
        """A counter/gauge family summed over all its series."""
        family = self.metrics.get(name)
        return 0.0 if family is None else sum(family["children"].values())

    def as_dict(self) -> dict:
        """JSON-ready view: label values joined into ``a="x",b="y"`` keys."""
        out: dict = {}
        for name, family in sorted(self.metrics.items()):
            children = {}
            for key, value in family["children"].items():
                label = ",".join(
                    f'{ln}="{_escape_label_value(lv)}"'
                    for ln, lv in zip(family["labelnames"], key)
                )
                children[label] = (
                    {
                        "buckets": list(value["buckets"]),
                        "counts": list(value["counts"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                    if isinstance(value, dict)
                    else value
                )
            out[name] = {"kind": family["kind"], "children": children}
        return out

    def to_text(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for name, family in sorted(self.metrics.items()):
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {family['kind']}")
            labelnames = tuple(family["labelnames"])
            for key, value in family["children"].items():
                base = _label_string(labelnames, key)
                if isinstance(value, dict):
                    cumulative = 0
                    for bound, count in zip(
                        value["buckets"], value["counts"]
                    ):
                        cumulative += count
                        bucket = _label_string(
                            labelnames + ("le",),
                            key + (format_float(bound),),
                        )
                        lines.append(
                            f"{name}_bucket{bucket} {cumulative}"
                        )
                    bucket = _label_string(
                        labelnames + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{name}_bucket{bucket} {value['count']}")
                    lines.append(
                        f"{name}_sum{base} {format_float(value['sum'])}"
                    )
                    lines.append(f"{name}_count{base} {value['count']}")
                else:
                    lines.append(f"{name}{base} {format_float(value)}")
        return "\n".join(lines) + "\n"


def _copy_child(value):
    if isinstance(value, dict):
        return {
            "buckets": tuple(value["buckets"]),
            "counts": list(value["counts"]),
            "sum": value["sum"],
            "count": value["count"],
        }
    return value


def _label_string(labelnames: tuple, labelvalues: tuple) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """A named collection of metric families, one per process.

    ``enabled=False`` builds a registry whose families hand out no-op
    children — every recording site stays in place and costs one
    attribute load plus an early return (the metrics-off arm the
    overhead bench compares against).
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._families: dict[str, _MetricFamily] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name, help, labelnames, **kwargs):  # noqa: A002
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.labelnames != tuple(labelnames)
                    or kwargs.get("buckets", getattr(existing, "buckets", None))
                    != getattr(existing, "buckets", None)
                ):
                    raise ValueError(
                        f"metric {name!r} already registered with a "
                        f"different shape"
                    )
                return existing
            family = cls(
                name, help, tuple(labelnames), enabled=self.enabled, **kwargs
            )
            self._families[name] = family
            return family

    def counter(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: tuple[str, ...] = (),
    ) -> Counter:
        """Get-or-create a counter family (idempotent per name)."""
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: tuple[str, ...] = (),
    ) -> Gauge:
        """Get-or-create a gauge family (idempotent per name)."""
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",  # noqa: A002
        labelnames: tuple[str, ...] = (),
        *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get-or-create a histogram family (idempotent per name)."""
        return self._register(
            Histogram, name, help, labelnames, buckets=tuple(buckets)
        )

    def snapshot(self) -> MetricsSnapshot:
        """A mergeable, picklable copy of every family's current state."""
        with self._lock:
            families = list(self._families.values())
        return MetricsSnapshot(
            metrics={
                family.name: {
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": family.labelnames,
                    "children": family.snapshot_children(),
                }
                for family in families
            }
        )


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def parse_prometheus_text(text: str) -> dict:
    """Parse (and validate) text exposition back into samples.

    Returns ``{family_name: {"type": kind, "samples": {(sample_name,
    labels_tuple): value}}}``. Raises ``ValueError`` on malformed
    lines, samples preceding their ``# TYPE``, or histogram bucket
    series whose cumulative counts decrease — the shape checks the
    format tests and the bench gate rely on.
    """
    families: dict = {}
    types: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "untyped"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            if name in types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            types[name] = kind
            families[name] = {"type": kind, "samples": {}}
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name = match.group("name")
        family_name = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in types:
                family_name = sample_name[: -len(suffix)]
                break
        if family_name not in types:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} precedes its TYPE"
            )
        raw = match.group("labels")
        labels: tuple = ()
        if raw:
            pos = 0
            pairs = []
            while pos < len(raw):
                pair = _LABEL_PAIR_RE.match(raw, pos)
                if pair is None:
                    raise ValueError(
                        f"line {lineno}: malformed labels {raw!r}"
                    )
                pairs.append((pair.group(1), pair.group(2)))
                pos = pair.end()
            labels = tuple(pairs)
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        families[family_name]["samples"][(sample_name, labels)] = value
    _check_histograms(families)
    return families


def _check_histograms(families: dict) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: dict[tuple, list[tuple[float, float]]] = {}
        for (sample_name, labels), value in family["samples"].items():
            if not sample_name.endswith("_bucket"):
                continue
            le = dict(labels).get("le")
            if le is None:
                raise ValueError(f"{name}: bucket sample without le label")
            bound = math.inf if le == "+Inf" else float(le)
            base = tuple(pair for pair in labels if pair[0] != "le")
            series.setdefault(base, []).append((bound, value))
        for base, buckets in series.items():
            buckets.sort()
            if buckets[-1][0] != math.inf:
                raise ValueError(f"{name}: histogram missing +Inf bucket")
            counts = [count for _, count in buckets]
            if any(b < a for a, b in zip(counts, counts[1:])):
                raise ValueError(
                    f"{name}: cumulative bucket counts decrease"
                )
            count_value = family["samples"].get((f"{name}_count", base))
            if count_value is not None and count_value != counts[-1]:
                raise ValueError(
                    f"{name}: _count disagrees with +Inf bucket"
                )


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "format_float",
    "histogram_percentile",
    "parse_prometheus_text",
]
