"""Unified observability: metrics registry, stage tracing, structured logs,
and profiling hooks — one optional substrate for every layer.

The :class:`Observability` hub bundles up to four independent components
(metrics :class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.trace.Tracer`, a :class:`~repro.obs.logs.JsonLogger`,
a :class:`~repro.obs.profiling.StageProfiler`), each of which may be
``None``.  Instrumented code takes ``obs=None`` and checks *once per
pass / document* which components are live — never per event.  Stage
seconds are always taken (a clock pair per parser call and per routed
chunk, on the pass's :class:`~repro.service.metrics.PassMetrics`); the
hub only decides where they are published.

This package is stdlib-only and imports nothing from the rest of
``repro``: it sits below ``runtime`` and ``service`` in the layering, so
any layer can record into it without cycles.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.logs import JsonLogger, MemoryLogger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_snapshot,
)
from repro.obs.profiling import StageProfiler
from repro.obs.trace import (
    JsonLinesSink,
    MemorySink,
    Span,
    Tracer,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "format_snapshot",
    "Tracer",
    "Span",
    "JsonLinesSink",
    "MemorySink",
    "new_trace_id",
    "new_span_id",
    "JsonLogger",
    "MemoryLogger",
    "StageProfiler",
]


class Observability:
    """The bundle handed to services and pools; every part optional.

    ``Observability()`` with no arguments is a fully inert hub — useful
    as an explicit "off" — but the conventional off-switch is passing
    ``obs=None``.

    Helpers (:meth:`log`, :meth:`observe_stage`) are no-op-safe: callers
    that already hold a non-``None`` hub can use them without checking
    which components are enabled.
    """

    __slots__ = ("metrics", "tracer", "logger", "profiler")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        logger: Optional[JsonLogger] = None,
        profiler: Optional[StageProfiler] = None,
    ):
        self.metrics = metrics
        self.tracer = tracer
        self.logger = logger
        self.profiler = profiler

    def log(self, event: str, **fields) -> None:
        if self.logger is not None:
            self.logger.event(event, **fields)

    def observe_stage(self, stage: str, duration_s: float, **labels) -> None:
        """Record one stage duration into the latency histogram."""
        if self.metrics is not None:
            self.metrics.histogram(
                "repro_stage_duration_seconds",
                "Per-pass duration of each pipeline stage, in seconds.",
            ).observe(duration_s, stage=stage, **labels)

    def record_span(self, name: str, trace_id: Optional[str], duration_s: float,
                    parent_id: Optional[str] = None, **attrs) -> None:
        if self.tracer is not None and trace_id is not None:
            self.tracer.record(name, trace_id, duration_s, parent_id=parent_id, **attrs)

    def for_pool_worker(self) -> "Observability":
        """The hub a pool hands its worker services.

        Shares the metrics registry and tracer (stage histograms and pass
        spans must come from where passes actually run) but drops the
        logger — lifecycle events are the pool's to log once, not once
        per mirrored worker — and the profiler, which wraps one pass at a
        time and cannot be enabled concurrently from worker threads.
        """
        return Observability(metrics=self.metrics, tracer=self.tracer)

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()
        if self.logger is not None:
            self.logger.close()
