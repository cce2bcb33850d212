"""The sharding core shared by every service-pool backend.

Three pool backends shard a document stream across N mirrored serving
loops — worker threads (:class:`~repro.service.pool.ServicePool`), asyncio
tasks (:class:`~repro.service.pool.AsyncServicePool`), and worker
*processes* (:class:`~repro.service.process_pool.ProcessServicePool`).
They differ in the *transport* that carries a document to a worker and its
outcome back; everything above the transport exists once, here:

* **one mirrored registration surface** — ``register`` / ``unregister`` /
  ``register_all`` fan a change out to every worker under one key, so each
  worker's snapshot at pass-open time is identical, while compilation cost
  does not fan out: every backend compiles through one shared
  :class:`~repro.runtime.plan_cache.PlanCache` in the *driving* process
  (the process backend then ships the compiled artifacts instead of
  letting workers recompile);
* **the sharding loop** — :meth:`PoolCore.serve`: demand-driven
  assignment of the next document to an idle worker slot, one completion
  awaited at a time, guarded so that one loop runs per pool and
  registrations cannot change under it (mutating N mirrors under a running
  shard would tear the mirror);
* **delivery** — :meth:`PoolCore._deliver`, the one place an outcome is
  folded into the pool's accounting, traced (``pool.shard``), logged when
  it is a fault (``pool.fault``), stripped of its traceback and counted —
  as results are *yielded* (a result drained away by a closed loop was
  never served to anyone) — aggregated into
  :class:`~repro.service.metrics.PoolMetrics` together with the backend's
  worker metrics and plan-shipping counters.

Every worker, whatever the transport, runs the same document step:
:meth:`QueryService.serve_document
<repro.service.service.QueryService.serve_document>` (awaited, on the
asyncio backend).

:class:`PoolCore` is the backend-agnostic core; :class:`ServiceBackedPool`
specializes it for backends whose workers are in-process service objects
(threads, asyncio).  The process backend extends :class:`PoolCore`
directly — its workers live in other processes, so the parent mirrors
their registrations symbolically and rebuilds their metrics from the
results they ship back.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.obs import Observability, new_trace_id
from repro.runtime.plan_cache import PlanCache
from repro.service.metrics import MetricsPublisher, PoolMetrics, ServiceMetrics
from repro.service.service import ServedDocument
from repro.service.session import RegisteredQuery


class _InFlight(NamedTuple):
    """One dispatched, not yet delivered document (by worker slot)."""

    index: int
    #: Minted at dispatch when tracing: the worker's pass spans, the
    #: ``pool.shard`` span and a crash-respawn all join this trace.
    trace_id: Optional[str]
    sent_wall: float
    sent_perf: float


class PoolCore(MetricsPublisher):
    """Registration mirroring, the sharding loop, and outcome delivery.

    Subclasses implement the backend hooks:

    * :meth:`_mirror_register` / :meth:`_mirror_unregister` — apply one
      registration change to every worker mirror;
    * :attr:`registrations` / :meth:`__len__` — the mirrored view;
    * :meth:`_worker_metrics` — one cumulative
      :class:`~repro.service.metrics.ServiceMetrics` per worker slot, for
      aggregation;
    * the transport — :meth:`_submit` one document to a worker slot,
      :meth:`_wait` for one completion, :meth:`_drain` what a finished or
      closed loop left in flight; optionally :meth:`_ensure_started`
      (bring the workers up as a loop begins) and :meth:`_fold` (per
      delivered outcome, for workers whose metrics do not live in this
      process);
    * optionally :meth:`_ship_stats` — cumulative ``(count, bytes)`` of
      plan artifacts shipped to workers (zero for in-process backends).
    """

    _metrics_prefix = "repro_pool"

    def __init__(self, dtd: Union[DTD, str, None], workers: int,
                 plan_cache: Optional[PlanCache], cache_size: int,
                 obs: Optional[Observability] = None):
        if workers < 1:
            raise ValueError("a service pool needs at least one worker")
        if isinstance(dtd, str):
            dtd = parse_dtd(dtd)
        self.dtd = dtd
        #: Optional observability hub.  The pool logs its own lifecycle
        #: (register/unregister, fault isolation, respawns) and emits
        #: shard-level spans; pass-level instrumentation happens wherever
        #: the backend actually runs its passes.
        self.obs = obs
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(cache_size)
        self._counter = 0
        self._serving = False
        #: Dispatched documents by worker slot; a slot is idle when absent.
        self._in_flight: Dict[int, _InFlight] = {}
        # Delivered-outcome counters by worker id, cumulative across
        # loops; updated as results are *yielded* (a result drained away
        # by a closed loop was never served to anyone).
        self._documents_ok: Dict[int, int] = {}
        self._documents_failed: Dict[int, int] = {}
        self._counter_lock = threading.Lock()

    # ---------------------------------------------------------- back hooks

    def _mirror_register(self, query: str, key: str) -> RegisteredQuery:
        """Register ``query`` under ``key`` on every worker mirror."""
        raise NotImplementedError

    def _mirror_unregister(self, key: str) -> None:
        """Remove ``key`` from every worker mirror (``key`` exists)."""
        raise NotImplementedError

    def _worker_metrics(self) -> List[ServiceMetrics]:
        """One cumulative service-metrics snapshot per worker slot."""
        raise NotImplementedError

    def _ship_stats(self) -> Tuple[int, int]:
        """Cumulative ``(artifacts shipped, payload bytes shipped)``."""
        return (0, 0)

    def _ensure_started(self) -> None:
        """Bring the workers up; called as every serve loop begins."""

    def _submit(self, slot: int, index: int, document, chunk_size: int,
                trace_id: Optional[str]) -> None:
        """Start ``document`` on idle worker ``slot``: one
        ``serve_document(document, index, chunk_size, trace_id, slot)``."""
        raise NotImplementedError

    def _wait(self) -> Optional[ServedDocument]:
        """Block until one in-flight document completes and return its
        outcome (``worker`` names the slot), or ``None`` when the wake-up
        only changed worker state.  A non-``Exception`` that escaped a
        worker's pass is re-raised here."""
        raise NotImplementedError

    def _drain(self) -> None:
        """Wait out (or cancel) in-flight documents and discard their
        outcomes; the workers end the loop idle."""
        raise NotImplementedError

    def _fold(self, served: ServedDocument) -> None:
        """Fold one delivered outcome into parent-side worker accounting."""

    @property
    def registrations(self) -> Dict[str, RegisteredQuery]:
        """The mirrored registrations, by key."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.registrations)

    @property
    def workers(self) -> int:
        """Pool size — how many documents may be in flight at once."""
        return len(self._worker_metrics())

    # ------------------------------------------------------- registration

    def _check_mutable(self) -> None:
        if self._serving:
            raise RuntimeError(
                "cannot change pool registrations while a serve loop is "
                "running; finish (or close) the loop first"
            )

    def register(self, query: str, key: Optional[str] = None) -> RegisteredQuery:
        """Register ``query`` on every worker under one ``key``.

        Compiled once through the shared cache; the returned
        :class:`RegisteredQuery` is the first mirror's (all mirrors share
        the same compiled plan entry).  Raises ``RuntimeError`` while a
        serve loop is running.
        """
        self._check_mutable()
        if key is None:
            self._counter += 1
            key = f"q{self._counter}"
        registration = self._mirror_register(query, key)
        if self.obs is not None:
            self.obs.log(
                "pool.register", key=key, from_cache=registration.from_cache
            )
        return registration

    def register_all(self, queries: Iterable[str]) -> List[RegisteredQuery]:
        """Register several queries at once (autogenerated keys)."""
        return [self.register(query) for query in queries]

    def unregister(self, key: str) -> None:
        """Remove a standing query from every worker; unknown keys raise
        ``KeyError``.  Raises ``RuntimeError`` while a serve loop is
        running."""
        self._check_mutable()
        if key not in self.registrations:
            raise KeyError(key)
        self._mirror_unregister(key)
        if self.obs is not None:
            self.obs.log("pool.unregister", key=key)

    # --------------------------------------------------- the sharding loop

    def _begin_serving(self) -> None:
        if self._serving:
            raise RuntimeError(
                "a serve loop is already running on this pool; one shard "
                "at a time — finish (or close) it before starting another"
            )
        if not len(self):
            raise ValueError("serve(): no queries registered on the pool")
        self._serving = True

    def _end_serving(self) -> None:
        self._in_flight.clear()
        self._serving = False

    def _record_outcome(self, worker_id: int, ok: bool) -> None:
        with self._counter_lock:
            counters = self._documents_ok if ok else self._documents_failed
            counters[worker_id] = counters.get(worker_id, 0) + 1

    def _idle_slot(self) -> Optional[int]:
        for slot in range(self.workers):
            if slot not in self._in_flight:
                return slot
        return None

    def _assign(self, slot: int, index: int, document, chunk_size: int) -> None:
        """Hand ``document`` to idle ``slot`` and stamp it in flight."""
        tracing = self.obs is not None and self.obs.tracer is not None
        trace_id = new_trace_id() if tracing else None
        self._submit(slot, index, document, chunk_size, trace_id)
        self._in_flight[slot] = _InFlight(
            index, trace_id, time.time(), time.perf_counter()
        )

    def _deliver(self, served: ServedDocument) -> ServedDocument:
        """Everything that happens to an outcome on its way to the consumer.

        Frees the worker slot, folds the worker's metrics, records the
        ``pool.shard`` span (dispatch to delivery, in the document's
        trace), logs a fault-isolated failure as ``pool.fault``, and
        counts the outcome — at delivery, not completion: results a closed
        loop drains away were never served to anyone.
        """
        flight = self._in_flight.pop(served.worker)
        self._fold(served)
        if served.error is not None:
            # Drop the traceback: its frames pin the document text and the
            # aborted pass graph for the outcome's lifetime, and a serving
            # loop may accumulate many error outcomes.
            served.error.__traceback__ = None
        if self.obs is not None:
            self.obs.record_span(
                "pool.shard",
                flight.trace_id,
                time.perf_counter() - flight.sent_perf,
                start=flight.sent_wall,
                worker=served.worker,
                index=served.index,
                **({} if served.ok else {"outcome": "error"}),
            )
            if not served.ok:
                self.obs.log(
                    "pool.fault",
                    worker=served.worker,
                    index=served.index,
                    error=type(served.error).__name__,
                    trace_id=flight.trace_id,
                )
        self._record_outcome(served.worker, served.ok)
        return served

    def serve(self, documents: Iterable, chunk_size: int = 256) -> Iterator[ServedDocument]:
        """Shard ``documents`` across the workers; yield results as they
        complete.

        One :class:`ServedDocument` per document — tagged with ``worker``
        and source ``index``, in *completion* order (sort by ``index`` if
        you need source order).  Dispatch is demand-driven: the next
        document is pulled from the source, on the consuming thread, only
        when a worker is idle, so a lazy source is consumed on demand and
        at most ``workers`` documents are in flight beyond what the
        consumer has taken — a slow consumer pauses the shard instead of
        buffering an unbounded stream's results.  A document may be XML
        text, a file-like object, or a
        :class:`~repro.service.service.DocumentSource` recipe that the
        serving worker materializes.

        **Fault isolation**: a document whose step fails (unopenable,
        malformed XML, validation, evaluation) is delivered as
        ``outcome == "error"`` with the exception on ``error`` and the
        failed pass's partial metrics; the worker's pass slot is released
        by the abort, so the same worker accepts the next document.  Only
        an error raised by the *source iterator itself* (or a
        non-``Exception`` like ``KeyboardInterrupt``) propagates and ends
        the loop.

        Serving an empty pool raises ``ValueError`` before any document is
        pulled; a second ``serve`` while one is running raises
        ``RuntimeError``.  Closing the generator early waits for in-flight
        passes, discards their undelivered results, and leaves the pool
        serviceable.  Registration changes are rejected while the loop
        runs.
        """
        source = enumerate(documents)  # before the guard: a bad argument
        self._begin_serving()          # must not lock the pool forever
        try:
            self._ensure_started()
            exhausted = False
            while True:
                while not exhausted:
                    slot = self._idle_slot()
                    if slot is None:
                        break
                    try:
                        index, document = next(source)
                    except StopIteration:
                        exhausted = True
                    else:
                        self._assign(slot, index, document, chunk_size)
                if not self._in_flight:
                    return
                served = self._wait()
                if served is not None:
                    yield self._deliver(served)
        finally:
            try:
                self._drain()
            finally:
                self._end_serving()

    # ----------------------------------------------------------- reporting

    @property
    def metrics(self) -> PoolMetrics:
        """A fresh aggregate of the workers' cumulative metrics."""
        with self._counter_lock:
            ok = dict(self._documents_ok)
            failed = dict(self._documents_failed)
        ship_count, ship_bytes = self._ship_stats()
        return PoolMetrics.aggregate(
            self._worker_metrics(), ok, failed,
            ship_count=ship_count, ship_bytes=ship_bytes,
        )


class ServiceBackedPool(PoolCore):
    """A pool whose worker mirrors are in-process service objects.

    The thread and asyncio backends name their worker class in
    ``_service_class`` (``QueryService`` / ``AsyncQueryService``); N
    instances sharing the pool's plan cache live in ``self._services``,
    the mirrored registration surface fans out to them directly, and
    their live ``metrics`` objects are the aggregation source.
    """

    _service_class: type

    def __init__(
        self,
        dtd: Union[DTD, str, None] = None,
        workers: int = 2,
        validate: bool = True,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = 128,
        obs: Optional[Observability] = None,
    ):
        super().__init__(dtd, workers, plan_cache, cache_size, obs=obs)
        worker_obs = obs.for_pool_worker() if obs is not None else None
        self._services = [
            self._service_class(
                self.dtd,
                validate=validate,
                plan_cache=self.plan_cache,
                obs=worker_obs,
            )
            for _ in range(workers)
        ]

    def _mirror_register(self, query: str, key: str) -> RegisteredQuery:
        registrations = [
            service.register(query, key=key) for service in self._services
        ]
        return registrations[0]

    def _mirror_unregister(self, key: str) -> None:
        for service in self._services:
            service.unregister(key)

    def _worker_metrics(self) -> List[ServiceMetrics]:
        return [service.metrics for service in self._services]

    @property
    def registrations(self) -> Dict[str, RegisteredQuery]:
        """The mirrored registrations, by key (worker 0's view)."""
        return self._services[0].registrations

    def __len__(self) -> int:
        return len(self._services[0])

    @property
    def workers(self) -> int:
        return len(self._services)

    @property
    def services(self) -> List:
        """The worker services (read-only by convention; for inspection)."""
        return list(self._services)
