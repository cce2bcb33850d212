"""Lightweight stage spans with cross-process trace-id propagation.

A *span* is one timed stage of work — flat dicts, not an OpenTelemetry
dependency: ``{"trace_id", "span_id", "parent_id", "name", "start",
"duration_s", ...attrs}``.  The taxonomy is small and fixed:

* pass stages: ``pass``, ``pass.parse``, ``pass.route``,
  ``pass.evaluate``, ``pass.emit``;
* pool stages: ``pool.shard``, ``pool.ship``, ``pool.respawn``.

A *trace id* names one document's journey through the system.  The pool
layers mint one per served document and thread it everywhere that
document's work happens: across :class:`ServicePool` worker threads
(plain argument passing) and across the :class:`ProcessServicePool`
pipes — the parent stamps the trace id into each ``("doc", ...)``
message, the worker records its spans into a :class:`MemorySink`, and
ships them back inside the ``("served", ...)`` reply, where the parent
re-emits them into its own sink.  The result is the acceptance
criterion: one merged JSON-lines trace file in the parent where a
worker's ``pass.evaluate`` span and the parent's ``pool.ship`` /
``pool.respawn`` spans all carry the same trace id, even across a worker
crash-respawn (the slot remembers the in-flight document's trace id).

``start`` timestamps are wall-clock (``time.time()``) so spans from
different processes land on one comparable axis; ``duration_s`` is
measured with ``time.perf_counter()`` by the caller.  Stdlib only; no
``repro`` imports.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, collision-safe per run)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    return os.urandom(4).hex()


class SpanSink:
    """Destination for finished spans.  Subclasses override :meth:`emit`."""

    def emit(self, span: Dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemorySink(SpanSink):
    """Collects spans in memory — the worker-side buffer shipped back
    with each served document, and the handiest sink for tests."""

    def __init__(self):
        self._lock = threading.Lock()
        self._spans: List[Dict] = []

    def emit(self, span: Dict) -> None:
        with self._lock:
            self._spans.append(span)

    def drain(self) -> List[Dict]:
        """Return and clear everything collected so far."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    @property
    def spans(self) -> List[Dict]:
        with self._lock:
            return list(self._spans)


class JsonLinesSink(SpanSink):
    """Appends each span as one JSON line to a file (or file-like)."""

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._file = path_or_file
            self._owns = False
        else:
            self._file = open(path_or_file, "a", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()

    def emit(self, span: Dict) -> None:
        line = json.dumps(span, sort_keys=True, default=str)
        with self._lock:
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._owns:
                self._file.close()


class Span:
    """One in-flight stage; a context manager that emits itself on exit.

    Duration is ``perf_counter``-measured; extra attributes can be added
    mid-flight via :meth:`set` and land on the emitted dict.
    """

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent_id", "_attrs",
                 "_start_wall", "_start_perf", "duration_s")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: Optional[str], attrs: Dict):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self._attrs = attrs
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        self.duration_s: Optional[float] = None

    def set(self, **attrs) -> None:
        self._attrs.update(attrs)

    def finish(self) -> Dict:
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._start_perf
        span = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self._start_wall,
            "duration_s": self.duration_s,
        }
        span.update(self._attrs)
        self._tracer.emit(span)
        return span

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        self.finish()


class Tracer:
    """Mints trace ids, opens spans, and records pre-measured durations.

    Two recording styles, matching how the instrumented code measures:

    * :meth:`span` — a context manager for work bracketed in one place
      (a whole pass, a pool shard, a plan shipment);
    * :meth:`record` — for durations accumulated *across* many small
      slices (the dispatcher sums per-chunk route/dispatch/evaluate time
      and records one span per stage at pass finish, so tracing never
      adds a per-event timestamp pair to the hot loop).

    The sink decides where spans go: :class:`JsonLinesSink` in the
    parent (the ``--trace-out`` file), :class:`MemorySink` in pool
    workers (drained into the result pipe after each document).
    """

    def __init__(self, sink: SpanSink):
        self.sink = sink

    def span(self, name: str, trace_id: Optional[str] = None,
             parent_id: Optional[str] = None, **attrs) -> Span:
        return Span(self, name, trace_id or new_trace_id(), parent_id, attrs)

    def record(self, name: str, trace_id: str, duration_s: float,
               parent_id: Optional[str] = None, start: Optional[float] = None,
               span_id: Optional[str] = None, **attrs) -> Dict:
        """Emit a span for work already measured by the caller.

        ``span_id`` may be pinned by the caller when children recorded
        *before* their parent must reference it (a pass records its stage
        spans, then itself, all at finish time).
        """
        span = {
            "trace_id": trace_id,
            "span_id": span_id or new_span_id(),
            "parent_id": parent_id,
            "name": name,
            "start": time.time() if start is None else start,
            "duration_s": duration_s,
        }
        span.update(attrs)
        self.emit(span)
        return span

    def emit(self, span: Dict) -> None:
        """Forward a finished span dict to the sink.

        Also the merge point: the process pool parent calls this for each
        worker-shipped span so one file holds the whole trace.
        """
        self.sink.emit(span)

    def close(self) -> None:
        self.sink.close()
