"""Runtime statistics shared by all engines.

The paper's evaluation reports two quantities — main-memory consumption and
running time.  :class:`RuntimeStats` is the single accounting object every
engine fills in, so the benchmark harness can compare engines on identical
metrics:

* ``peak_buffer_bytes`` — the maximum number of bytes held in explicit
  buffers at any point during evaluation (document trees for the DOM engine,
  projected trees for the projection engine, BDF buffers and per-element
  materializations for the FluX engine);
* ``events_processed`` / ``elements_parsed`` — stream progress counters;
* ``output_bytes`` — size of the serialized result;
* ``join_build_rows`` / ``join_probes`` / ``join_candidates`` — the hash
  joins of the buffered executor (:mod:`repro.runtime.buffered`): binding
  tuples filed in build tables, outer bindings probed, and pairs re-checked;
* ``skipped_subtrees`` / ``skipped_bytes`` — element subtrees the parser
  skipped because the plan never reads them (:class:`~repro.xmlstream.events
  .SkippedSubtree`), and the characters they spanned;
* ``elapsed_seconds`` — wall-clock evaluation time (excluding query
  compilation, which is reported separately by the optimizer pipeline).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class RuntimeStats:
    """Mutable counters describing one query evaluation."""

    peak_buffer_bytes: int = 0
    current_buffer_bytes: int = 0
    events_processed: int = 0
    elements_parsed: int = 0
    onfirst_events: int = 0
    buffered_nodes: int = 0
    output_bytes: int = 0
    join_build_rows: int = 0
    join_probes: int = 0
    join_candidates: int = 0
    skipped_subtrees: int = 0
    skipped_bytes: int = 0
    elapsed_seconds: float = 0.0

    _started_at: Optional[float] = field(default=None, repr=False)

    # ------------------------------------------------------------- buffers

    def buffer_grow(self, amount: int) -> None:
        """Record ``amount`` additional buffered bytes."""
        self.current_buffer_bytes += amount
        if self.current_buffer_bytes > self.peak_buffer_bytes:
            self.peak_buffer_bytes = self.current_buffer_bytes

    def buffer_shrink(self, amount: int) -> None:
        """Record the release of ``amount`` buffered bytes."""
        self.current_buffer_bytes = max(0, self.current_buffer_bytes - amount)

    # -------------------------------------------------------------- timing

    def start_timer(self) -> None:
        """Start (or restart) the evaluation wall-clock."""
        self._started_at = time.perf_counter()

    def stop_timer(self) -> None:
        """Stop the wall-clock and accumulate into ``elapsed_seconds``."""
        if self._started_at is not None:
            self.elapsed_seconds += time.perf_counter() - self._started_at
            self._started_at = None

    # ------------------------------------------------------------- summary

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by the benchmark reporting layer."""
        return {
            "peak_buffer_bytes": self.peak_buffer_bytes,
            "events_processed": self.events_processed,
            "elements_parsed": self.elements_parsed,
            "onfirst_events": self.onfirst_events,
            "buffered_nodes": self.buffered_nodes,
            "output_bytes": self.output_bytes,
            "join_build_rows": self.join_build_rows,
            "join_probes": self.join_probes,
            "join_candidates": self.join_candidates,
            "skipped_subtrees": self.skipped_subtrees,
            "skipped_bytes": self.skipped_bytes,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def observe(self, obs, **labels) -> None:
        """Fold this evaluation's counters into an observability hub.

        ``obs`` is a :class:`repro.obs.Observability` (duck-typed: anything
        carrying a ``metrics`` registry works; a hub without metrics is a
        no-op), so engines can call this unconditionally once a hub is
        configured.  ``labels`` (e.g. ``engine="flux"``) distinguish the
        series of different engines sharing one registry.
        """
        metrics = getattr(obs, "metrics", None)
        if metrics is None:
            return
        metrics.counter(
            "repro_engine_events_total",
            "Parser events processed by solo engine executions.",
        ).inc(self.events_processed, **labels)
        metrics.counter(
            "repro_engine_output_bytes_total",
            "Serialized result bytes produced by solo engine executions.",
        ).inc(self.output_bytes, **labels)
        metrics.histogram(
            "repro_engine_eval_seconds",
            "Wall-clock evaluation time of one solo engine execution.",
        ).observe(self.elapsed_seconds, **labels)

    def summary(self) -> str:
        return (
            f"peak buffer: {self.peak_buffer_bytes} B, "
            f"events: {self.events_processed}, "
            f"output: {self.output_bytes} B, "
            f"time: {self.elapsed_seconds * 1000:.1f} ms"
        )
