"""Document feed fixtures shared by the serving benchmarks and tests.

The service benchmarks model a **latency-bound** delivery regime:
documents arrive as chunked feeds with per-chunk transport latency (an
upload, a socket).  :class:`LatencyFeed` is the file-like rendering
(``time.sleep`` releases the GIL exactly like a blocking socket read, so
other pool workers keep evaluating); :class:`LatencyFeedSource` is its
picklable *recipe* — text, chunking, latency — which every serving face
accepts and the worker that serves the document materializes, so delivery
stays overlapped across workers on the thread and process backends alike
(a feed drained in a process pool's parent would serialize on the dispatch
loop).

Both are deliberately deterministic: same text, same chunking, same
latency schedule, so thread/process comparisons measure the backends, not
the fixtures.

:class:`CrashingFeedSource` is the process pool's fault injection: a
recipe whose reader kills the worker process that serves it, mid-pass.
"""

from __future__ import annotations

import io
import os
import time

from repro.service.service import DocumentSource


class LatencyFeed(io.TextIOBase):
    """A document arriving over a slow transport, as a file-like object.

    ``read()`` returns the next chunk after ``latency`` seconds.  Works
    anywhere the service layer accepts a file-like document.
    """

    def __init__(self, text: str, chunks: int = 10, latency: float = 0.015):
        step = max(1, (len(text) + chunks - 1) // chunks)
        self._parts = [text[i : i + step] for i in range(0, len(text), step)]
        self._latency = latency
        self._next = 0

    def read(self, size: int = -1) -> str:  # size ignored: chunked source
        if self._next >= len(self._parts):
            return ""
        time.sleep(self._latency)
        part = self._parts[self._next]
        self._next += 1
        return part


class LatencyFeedSource(DocumentSource):
    """The picklable recipe of a :class:`LatencyFeed`.

    The worker that serves it — a pool thread, a worker process, or the
    plain serve loop — materializes (and pays the delivery latency of) the
    feed itself.  Reusable, unlike the feed it opens.
    """

    def __init__(self, text: str, chunks: int = 10, latency: float = 0.015):
        self.text = text
        self.chunks = chunks
        self.latency = latency

    def open(self) -> LatencyFeed:
        return LatencyFeed(self.text, chunks=self.chunks, latency=self.latency)


class _CrashingFeed(LatencyFeed):
    """A two-chunk feed that exits the process on its second read."""

    def read(self, size: int = -1) -> str:
        if self._next:  # the first chunk was handed out, and fed
            os._exit(3)
        return super().read(size)


class CrashingFeedSource(DocumentSource):
    """A document whose reader exits the serving process mid-pass.

    The first read returns the first half of ``text``; the next one — once
    the step has fed that half into an open pass — calls ``os._exit(3)``,
    the way a segfault or OOM kill lands on a worker with the document
    genuinely in flight.  Fault injection for
    :class:`~repro.service.process_pool.ProcessServicePool` tests and
    benches: served on an in-process face it ends the calling process.
    """

    def __init__(self, text: str):
        self.text = text

    def open(self) -> LatencyFeed:
        return _CrashingFeed(self.text, chunks=2, latency=0.0)
