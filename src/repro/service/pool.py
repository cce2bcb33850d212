"""Fault-isolated service pool: the two in-process transports.

A single :class:`~repro.service.service.QueryService` serves one shared
pass at a time — the pass owns the parser position and the per-query
sessions, so overlapping two documents on one service cannot be made safe
(:class:`~repro.errors.PassInProgressError` makes the constraint explicit).
A pool hides it: N worker services *mirror* each other's registrations,
share one :class:`~repro.runtime.plan_cache.PlanCache` (compilation is paid
once per distinct query across the pool), and shard a document stream
through the one loop in :mod:`repro.service.pool_core`, which also owns
fault isolation and accounting.  What is left for this module is how a
document reaches a worker and its outcome comes back:

* :class:`ServicePool` runs each document step on a thread of a per-loop
  executor.  Under CPython's GIL the threads interleave rather than
  parallelize CPU-bound evaluation; what the pool buys on one core is
  *ingestion overlap* — while one worker waits on a slow document source
  (a socket, a file tail, an upload), the others keep evaluating.  The S4
  benchmark (``benchmarks/bench_s4_pool_scaling.py``) measures both
  regimes honestly; for hardware parallelism the third transport is
  :class:`~repro.service.process_pool.ProcessServicePool` (S5).
* :class:`AsyncServicePool` awaits the same loop on one event loop: N
  :class:`~repro.service.async_service.AsyncQueryService` workers driven
  by coroutine tasks, sharding a plain or async document iterable, each
  document itself optionally an async chunk feed.

Concurrency contract: one serve loop at a time per pool, registration
single-driver and only between loops.  The plan cache below remains fully
thread-safe and may be shared with further pools, services, and engines.
"""

from __future__ import annotations

import asyncio
from concurrent import futures
from typing import Set

from repro.service.async_service import AsyncQueryService, _iter_documents
from repro.service.pool_core import ServiceBackedPool
from repro.service.service import QueryService, ServedDocument


class ServicePool(ServiceBackedPool):
    """N mirrored :class:`QueryService` workers sharding a document stream.

    Parameters
    ----------
    dtd:
        Schema shared by all workers (a :class:`~repro.dtd.schema.DTD`,
        DTD text, or ``None``), parsed once.
    workers:
        Pool size — how many documents may be in flight at once.
    validate:
        Forwarded to every worker ``QueryService``.
    plan_cache:
        An existing cache to share; by default the pool owns one cache of
        ``cache_size`` plans that all its workers compile through.

    Use ``register`` / ``unregister`` / ``register_all`` between serve
    loops, then ``serve`` to shard a stream.  The pool's cumulative
    accounting is ``metrics`` (a fresh
    :class:`~repro.service.metrics.PoolMetrics` aggregate per read);
    ``stats_summary`` adds the shared plan-cache counters.  The executor
    lives for one serve loop and holds one future per busy worker slot.
    """

    _service_class = QueryService

    def _ensure_started(self) -> None:
        self._executor = futures.ThreadPoolExecutor(
            max_workers=len(self._services), thread_name_prefix="pool-worker"
        )
        self._futures: Set[futures.Future] = set()

    def _submit(self, slot, index, document, chunk_size, trace_id) -> None:
        self._futures.add(
            self._executor.submit(
                self._services[slot].serve_document,
                document, index, chunk_size, trace_id, slot,
            )
        )

    def _wait(self) -> ServedDocument:
        done, _ = futures.wait(self._futures, return_when=futures.FIRST_COMPLETED)
        future = done.pop()
        self._futures.remove(future)
        return future.result()

    def _drain(self) -> None:
        # Joins the worker threads: in-flight passes finish (each releases
        # its own service's slot), their outcomes are dropped.
        self._executor.shutdown()


class AsyncServicePool(ServiceBackedPool):
    """The service pool on one event loop: N coroutine-driven workers.

    Mirrors :class:`ServicePool` — shared plan cache, mirrored
    registrations, fault-isolated sharded ``serve`` — with
    :class:`AsyncQueryService` workers and asyncio tasks instead of
    threads.  This is cooperative concurrency: CPU-bound evaluation still
    runs one chunk at a time on the loop's thread, but slow *delivery*
    (async document sources, per-document async chunk feeds) overlaps
    across the workers, which is exactly the serving-scenario win.

    ``documents`` may be a plain or async iterable; each document may be
    XML text, a synchronous file-like object, a ``DocumentSource`` recipe,
    or an async iterable of text chunks (a connection).  All methods must
    be called from the event loop's thread; ``register``/``unregister``
    between serve loops only.
    """

    _service_class = AsyncQueryService

    def _submit(self, slot, index, document, chunk_size, trace_id) -> None:
        self._tasks.add(
            asyncio.ensure_future(
                self._services[slot].serve_document(
                    document, index, chunk_size, trace_id, slot
                )
            )
        )

    async def serve(self, documents, chunk_size: int = 256):
        """Shard a (plain or async) document iterable across the workers.

        :meth:`PoolCore.serve <repro.service.pool_core.PoolCore.serve>`
        with its two blocking points awaited — pulling the source and
        waiting for a completion — and the same contract: demand-driven
        dispatch, completion-order delivery through ``_deliver``,
        fault-isolated documents, source errors propagating, one loop at
        a time.  Closing the generator early *cancels* the in-flight
        steps (each aborts its pass) instead of waiting them out.
        """
        source = _iter_documents(documents)
        self._begin_serving()
        self._tasks: Set[asyncio.Future] = set()
        try:
            exhausted = False
            index = 0
            while True:
                while not exhausted:
                    slot = self._idle_slot()
                    if slot is None:
                        break
                    try:
                        document = await source.__anext__()
                    except StopAsyncIteration:
                        exhausted = True
                    else:
                        self._assign(slot, index, document, chunk_size)
                        index += 1
                if not self._in_flight:
                    return
                done, _ = await asyncio.wait(
                    self._tasks, return_when=asyncio.FIRST_COMPLETED
                )
                task = done.pop()
                self._tasks.remove(task)
                yield self._deliver(task.result())
        finally:
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            self._end_serving()
