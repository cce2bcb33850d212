"""Thread-safe labeled metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` describes the whole system — service
lifetime totals, pool shard accounting, plan-cache hit rates, and stage
latency distributions — in one snapshot, exportable two ways:

* :meth:`MetricsRegistry.snapshot` — a plain JSON-able dict (what
  ``multi --metrics-out`` writes and ``repro stats`` pretty-prints);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format (the ``/metrics`` wire format ROADMAP item 1's endpoint will
  serve; validated line-by-line by :mod:`repro.obs.validate`).

Design constraints, in order:

1. **The disabled path costs nothing.**  Nothing in this module is on any
   hot loop; instrumented code holds a registry reference and calls
   ``inc``/``observe`` at *pass* granularity (or, on the enabled timed
   path, at chunk granularity).  The per-event hot loop
   (:meth:`~repro.service.dispatcher.SharedProjectionIndex.route`) is
   never touched when observability is off.
2. **No torn reads.**  Every mutation and every snapshot holds the
   registry's one lock.  Mutations are tiny (a dict lookup and an add),
   so one lock beats per-metric locks: a snapshot sees a consistent
   cut of *all* metrics, which per-metric locking cannot give.
3. **Histograms are fixed-bucket.**  Observations land in precomputed
   latency buckets (no per-observation allocation beyond the first for a
   label set); percentiles (p50/p95/p99) are estimated at snapshot time
   by linear interpolation inside the covering bucket — the standard
   Prometheus-side estimate, computed here so a snapshot is
   self-contained.

Only the standard library is used, and nothing in ``repro.obs`` imports
other ``repro`` packages: the observability layer sits *below* runtime
and service in the dependency order, so any layer may record into it.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds) for stage/pass histograms: 100 µs up
#: to 30 s, roughly ×2.5 per step — wide enough for a whole XMark pass,
#: fine enough to separate route from evaluate on small documents.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Valid Prometheus metric and label names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelTuple = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelTuple:
    """A hashable, sorted form of a label set (values coerced to str)."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: LabelTuple, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Metric:
    """Base of one named metric family (all label sets of one name)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help_text
        self._lock = lock  # the owning registry's lock, shared on purpose


class Counter(_Metric):
    """A monotonically increasing sum, per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        super().__init__(name, help_text, lock)
        self._values: Dict[LabelTuple, float] = {}

    def inc(self, amount: float = 1, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    def _snapshot_values_locked(self) -> List[dict]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]

    def _exposition_locked(self) -> Iterable[str]:
        for key, value in sorted(self._values.items()):
            yield f"{self.name}{_format_labels(key)} {_format_value(value)}"


class Gauge(_Metric):
    """A value that may go up and down (set, or inc/dec), per label set."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        super().__init__(name, help_text, lock)
        self._values: Dict[LabelTuple, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0)

    _snapshot_values_locked = Counter._snapshot_values_locked
    _exposition_locked = Counter._exposition_locked


class _HistogramSeries:
    """Bucket counts, sum, and count of one histogram label set."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, bucket_count: int):
        self.bucket_counts = [0] * bucket_count
        self.total = 0.0
        self.count = 0


class Histogram(_Metric):
    """Fixed-bucket distribution with snapshot-time percentile estimates.

    Buckets are cumulative upper bounds (``le``), Prometheus-style, with an
    implicit ``+Inf`` bucket; :meth:`percentile` interpolates linearly
    inside the covering bucket (observations above the last finite bound
    report that bound — the estimate never invents a value the buckets
    cannot support).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help_text, lock)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._series: Dict[LabelTuple, _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.bounds) + 1)
            # Linear scan: bounds are few and the common case (latencies)
            # lands in the first third; bisect would not beat it.
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    series.bucket_counts[i] += 1
                    break
            else:
                series.bucket_counts[-1] += 1
            series.total += value
            series.count += 1

    # ---------------------------------------------------------- estimates

    def _percentile_locked(self, series: _HistogramSeries, quantile: float) -> float:
        if series.count == 0:
            return 0.0
        rank = quantile * series.count
        cumulative = 0
        for i, bucket_count in enumerate(series.bucket_counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if i >= len(self.bounds):  # +Inf bucket: clamp to last bound
                    return self.bounds[-1]
                lower = 0.0 if i == 0 else self.bounds[i - 1]
                upper = self.bounds[i]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * fraction
        return self.bounds[-1]  # pragma: no cover - unreachable

    def percentile(self, quantile: float, **labels: str) -> float:
        """The estimated ``quantile`` (0..1) for one label set."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None:
                return 0.0
            return self._percentile_locked(series, quantile)

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.total if series is not None else 0.0

    def _snapshot_values_locked(self) -> List[dict]:
        values = []
        for key, series in sorted(self._series.items()):
            cumulative = 0
            buckets = []
            for i, bound in enumerate(self.bounds):
                cumulative += series.bucket_counts[i]
                buckets.append({"le": bound, "count": cumulative})
            buckets.append({"le": "+Inf", "count": series.count})
            values.append(
                {
                    "labels": dict(key),
                    "count": series.count,
                    "sum": series.total,
                    "buckets": buckets,
                    "p50": self._percentile_locked(series, 0.50),
                    "p95": self._percentile_locked(series, 0.95),
                    "p99": self._percentile_locked(series, 0.99),
                }
            )
        return values

    def _exposition_locked(self) -> Iterable[str]:
        for key, series in sorted(self._series.items()):
            cumulative = 0
            for i, bound in enumerate(self.bounds):
                cumulative += series.bucket_counts[i]
                labels = _format_labels(key, ("le", _format_value(bound)))
                yield f"{self.name}_bucket{labels} {cumulative}"
            labels = _format_labels(key, ("le", "+Inf"))
            yield f"{self.name}_bucket{labels} {series.count}"
            yield f"{self.name}_sum{_format_labels(key)} {_format_value(series.total)}"
            yield f"{self.name}_count{_format_labels(key)} {series.count}"


class MetricsRegistry:
    """The one place every layer's counters, gauges, and histograms live.

    ``counter`` / ``gauge`` / ``histogram`` create-or-get a metric family
    by name (re-declaring with a different kind raises — one name, one
    meaning); the returned objects are cheap handles safe to cache and to
    use from any thread.  ``add_collector`` registers a callback run at
    the top of every :meth:`snapshot` / :meth:`to_prometheus`, which is
    how the counting dataclasses (live ``ServiceMetrics``, pool
    aggregates, ``CacheStats``) are published beside the *push*-style
    duration histograms.

    Thread-safety: one registry-wide lock guards every value mutation and
    the whole snapshot assembly, so concurrent writers can never tear a
    read (tested with N writer threads against a snapshotting reader).
    Collectors run *outside* the lock (they typically call back into
    ``set``), in registration order.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._collector_lock = threading.Lock()

    # ------------------------------------------------------------ families

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {metric.kind}, "
                        f"not {cls.kind}"
                    )
                return metric
            metric = cls(name, help_text, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    # ----------------------------------------------------------- collectors

    def add_collector(self, collect: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback refreshing pull-style values at snapshot time."""
        with self._collector_lock:
            self._collectors.append(collect)

    def _run_collectors(self) -> None:
        with self._collector_lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect(self)

    def set_from_dict(self, prefix: str, mapping: Dict, **labels: str) -> None:
        """Set one gauge per numeric scalar in ``mapping``, as ``prefix_key``.

        The publishing bridge for the counting dataclasses: the serving
        faces' collector (``register_metrics``) calls this with their
        ``stats_summary()``, so the whole system's counters land in one
        snapshot without the dataclasses knowing about the registry.
        Nested dicts/lists (per-query, per-worker breakdowns) are skipped
        — they stay in the source dataclass reports.
        """
        for key, value in mapping.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.gauge(f"{prefix}_{key}").set(value, **labels)

    # ------------------------------------------------------------- exports

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-able dict of every metric family and its label sets."""
        self._run_collectors()
        with self._lock:
            return {
                name: {
                    "kind": metric.kind,
                    "help": metric.help,
                    "values": metric._snapshot_values_locked(),
                }
                for name, metric in sorted(self._metrics.items())
            }

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        self._run_collectors()
        lines: List[str] = []
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
                lines.extend(metric._exposition_locked())
        return "\n".join(lines) + "\n"


def format_snapshot(snapshot: Dict[str, dict]) -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.snapshot` dict.

    This is what ``repro stats`` prints for a ``--metrics-out`` file.  It
    reads the snapshot *shape*, not live metric objects, so it works on a
    JSON round-trip; unknown kinds render like counters, keeping older
    builds able to print newer snapshots.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family.get("kind", "untyped")
        header = f"{name} ({kind})"
        if family.get("help"):
            header += f" -- {family['help']}"
        lines.append(header)
        values = family.get("values") or []
        if not values:
            lines.append("  (no samples)")
        for sample in values:
            labels = sample.get("labels") or {}
            label_text = (
                "{" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else "(no labels)"
            )
            if kind == "histogram":
                lines.append(
                    f"  {label_text}  count={sample.get('count', 0)}"
                    f"  sum={sample.get('sum', 0.0):.6f}"
                    f"  p50={sample.get('p50', 0.0):.6f}"
                    f"  p95={sample.get('p95', 0.0):.6f}"
                    f"  p99={sample.get('p99', 0.0):.6f}"
                )
            else:
                lines.append(f"  {label_text}  {_format_value(sample.get('value', 0))}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
