"""Multi-process service pool: plan shipping breaks the GIL cap.

The thread-backed :class:`~repro.service.pool.ServicePool` flatlines at
~1× on CPU-bound document streams — under CPython's GIL its workers
interleave evaluation instead of parallelizing it (S4 reports this
honestly).  :class:`ProcessServicePool` is the pipe *transport* of the
same pool: the sharding loop and outcome delivery are
:class:`~repro.service.pool_core.PoolCore`'s, each worker runs the same
:meth:`~repro.service.service.QueryService.serve_document` step, and this
module supplies ``_submit`` / ``_wait`` / ``_drain`` over per-worker pipes
with the workers moved into separate *processes*, where evaluation runs
truly in parallel on separate cores:

* **compile once, ship once per structure** — the parent keeps its
  registrations in a parent-side
  :class:`~repro.service.service.QueryService` that never serves: it
  compiles every registration through the shared
  :class:`~repro.runtime.plan_cache.PlanCache` (one optimizer run per
  distinct query, exactly like the in-process pools) and refcounts the
  results by :func:`~repro.runtime.plan_cache.structure_key`.  A
  registration that brings a structure the table did not hold yet ships
  its :class:`~repro.runtime.plan_cache.PlanArtifact` — query source +
  DTD fingerprint + pickled plan — to each worker inside its ``register``
  message; an alias sends only its key, source and structure key, so 10k
  aliases of 100 structures cost 100 artifact sends per worker, not 10k.
  Each worker hosts the same kind of table: it rebuilds a shipped plan
  once with :meth:`~repro.runtime.plan_cache.PlanArtifact.load_plan`,
  resolves an alias through its own structure table, and registers both
  with :meth:`~repro.service.service.QueryService.register_compiled`; it
  never parses, never optimizes, and (under the default ``spawn`` start
  method) provably cannot be reusing the parent's in-memory plans.
  Shipping volume is reported as ``ship_count`` / ``ship_bytes`` on
  :class:`~repro.service.metrics.PoolMetrics` (artifact sends only —
  alias subscriptions are a few bytes and not counted).
* **crashes are failed documents too** — a document whose step fails
  comes home as the step's error-tagged outcome (exception sanitized for
  the trip), like the in-process pools.  Beyond them: a worker process
  that *dies* (segfault, OOM kill, ``os._exit``) is detected, its
  in-flight document is delivered as an error outcome carrying
  :class:`~repro.errors.WorkerCrashError`, and the slot is respawned with
  the full registration set re-sent — the stream keeps serving.
* **the parent mirrors what it cannot see** — each shipped-home
  :class:`~repro.service.service.ServedDocument` *is* the worker's metric
  delta: ``_fold`` adds it to the slot's mirrored service metrics and
  pushes its stage and pass durations into the parent registry's
  histograms; the worker-side spans it travelled with (only when the
  parent traces) are merged into the parent's trace.

**Why pipes, not a shared queue.**  Every cross-process channel here is a
single-writer/single-reader :func:`multiprocessing.Pipe`: the parent
writes a worker's inbox, the worker writes its own result pipe.  A shared
``multiprocessing.Queue`` would be simpler — and wrong: its write side is
guarded by a cross-process lock, and a worker that *dies* while holding
it (precisely the failure this pool must survive) poisons the queue for
every surviving worker, deadlocking the pool.  With per-worker pipes a
crash can corrupt only the dead worker's own channel, which is discarded
on respawn; the parent multiplexes with
:func:`multiprocessing.connection.wait` over the result pipes *and* the
process sentinels, so results and deaths are both events, not polls.

**Worker-side protocol.**  Each worker process hosts one ordinary
:class:`~repro.service.service.QueryService` and consumes a single FIFO
inbox carrying both control and work messages, in order::

    ("register", key, skey, source, artifact)  register one query; the
                                               artifact rides along only
                                               when structure skey is new
    ("unregister", key)                drop a registration (the service
                                       releases an unused structure)
    ("doc", index, document, chunk, trace)   one serve_document step,
                                             replied on the result pipe
    ("stop",)                          exit cleanly (EOF on the inbox, too)

Parent and workers apply the same ``register`` / ``unregister`` sequence
to the same kind of table, so their structure refcounts agree without
further messages.  A fresh or respawned worker gets the parent's
registrations as ``register`` messages in registration order, the first
of each structure carrying its artifact.  Because registration messages
and documents share one ordered channel, a worker can never evaluate a
document against a stale registration set — the parent flushes
registration changes (allowed only between serve loops) before the next
loop's documents enter the inbox.

**Document forms.**  A document may be XML text (shipped verbatim), a
:class:`~repro.service.service.DocumentSource` (a small picklable recipe
that the *worker's* step materializes, so bulky or latency-bearing
delivery happens in the worker, off the parent's dispatch loop), or a
file-like object (drained to text in the parent before shipping —
convenient, but delivery then serializes on the parent; prefer a recipe
for streams whose delivery should overlap).

Choosing a backend: threads overlap *ingestion latency* and share plans
by reference — pick them when delivery dominates or documents are huge
and IPC would hurt.  Processes parallelize *evaluation* — pick them when
the stream is CPU-bound and cores are available.  The S5 benchmark
(``benchmarks/bench_s5_process_pool.py``) measures both pools on both
regimes.

Concurrency contract: identical to the other pools — one serve loop at a
time, registration only between loops, single driving thread.  The pool
holds OS resources (processes, pipes); ``close()`` releases them, the
pool is a context manager, and workers are daemonic as a last resort.
"""

from __future__ import annotations

import io
import multiprocessing
import pickle
import time
from multiprocessing import connection
from typing import Dict, List, Optional, Tuple, Union

from repro.dtd.schema import DTD
from repro.errors import WorkerCrashError
from repro.obs import MemorySink, Observability, Tracer
from repro.runtime.plan_cache import PlanArtifact, PlanCache
from repro.service.metrics import PassMetrics, ServiceMetrics, record_pass_durations
from repro.service.pool_core import PoolCore
from repro.service.service import (
    DocumentSource,
    QueryService,
    ServedDocument,
    _READ_CHUNK,
)
from repro.service.session import PlanStructure, RegisteredQuery

#: Upper bound (seconds) on one `connection.wait` — results and process
#: deaths are both wait events, so this is a safety net against missed
#: wakeups, not the detection latency.
_WAIT_STEP_SECONDS = 0.25

def _sanitize_exception(exc: BaseException) -> BaseException:
    """An exception safe to ship home over the result pipe.

    Most library errors pickle fine; exotic ones (custom constructors,
    unpicklable payloads) are replaced by a ``RuntimeError`` carrying the
    original type name and message, so the parent always gets *an* error
    rather than a pipe encoding failure.  Tracebacks and chains are
    dropped either way: their frames pin the document text and the
    aborted pass graph, and they would not survive the process boundary
    meaningfully.
    """
    exc.__traceback__ = exc.__cause__ = exc.__context__ = None
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(
    worker_id: int,
    dtd_blob: bytes,
    validate: bool,
    trace: bool,
    inbox,
    results,
) -> None:
    """A worker process: one mirrored ``QueryService``, driven by messages.

    Top-level (not a closure) so the ``spawn`` start method can import it.
    The service compiles nothing: a ``register`` message either carries
    the shipped artifact of a structure the service does not hold yet, or
    names a live structure of the service's own table, and either plan is
    registered through ``register_compiled``.  Each served document is
    answered with one ``("served", index, ServedDocument, compiled_here,
    spans)`` message on this worker's own result pipe; ``compiled_here``
    (the worker's plan-cache miss counter) lets the parent *verify* the
    worker never ran the optimizer.

    With ``trace`` set the worker runs its passes under an in-memory
    tracer: pass and stage spans — carrying the trace id the parent
    stamped into the ``doc`` message — are drained after each document and
    shipped home in the ``served`` reply, where the parent merges them
    into its own trace file.  The worker keeps no registry of its own; its
    metric delta *is* the :class:`PassMetrics` every served document
    already carries.
    """
    dtd = pickle.loads(dtd_blob)
    span_sink = MemorySink() if trace else None
    worker_obs = Observability(tracer=Tracer(span_sink)) if trace else None
    service = QueryService(dtd, validate=validate, obs=worker_obs)
    while True:
        try:
            message = inbox.recv()
        except EOFError:  # parent closed the inbox: shut down
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "register":
            _, key, skey, source, artifact = message
            if artifact is not None:
                entry = artifact.load_plan()
            else:
                # Read in place: the public ``structures`` view copies the
                # table, which would make N alias registrations O(N²).
                entry = service._structures[skey].entry
            service.register_compiled(entry, key=key, source=source)
        elif kind == "unregister":
            service.unregister(message[1])
        elif kind == "doc":
            _, index, document, chunk_size, trace_id = message
            try:
                served = service.serve_document(
                    document, index, chunk_size, trace_id, worker_id
                )
            except BaseException as exc:  # non-Exception: report, then die
                results.send(("fatal", index, _sanitize_exception(exc)))
                raise
            if served.error is not None:
                served.error = _sanitize_exception(served.error)
            compiled_here = service.plan_cache.stats.misses
            spans = span_sink.drain() if span_sink is not None else []
            results.send(("served", index, served, compiled_here, spans))
    results.close()


class _WorkerSlot:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "inbox", "results", "respawns", "compiled")

    def __init__(self):
        self.process = None
        #: Parent's write end of the worker's inbox pipe.
        self.inbox = None
        #: Parent's read end of the worker's result pipe.
        self.results = None
        self.respawns = 0
        #: Optimizer runs the worker reported (must stay 0: plans are
        #: shipped, never recompiled).
        self.compiled = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def close_channels(self) -> None:
        for channel in (self.inbox, self.results):
            if channel is not None:
                try:
                    channel.close()
                except Exception:
                    pass
        self.inbox = None
        self.results = None


class ProcessServicePool(PoolCore):
    """N mirrored ``QueryService`` workers in separate processes.

    Parameters
    ----------
    dtd:
        Schema shared by all workers (a :class:`DTD`, DTD text, or
        ``None``), parsed once in the parent and shipped pickled to each
        worker at spawn.
    workers:
        Pool size — worker processes, and documents in flight at once.
    validate:
        Forwarded to every worker's ``QueryService``.
    plan_cache:
        An existing cache to share; by default the pool owns one.  All
        compilation happens in the parent, through this cache — workers
        receive artifacts.
    start_method:
        ``multiprocessing`` start method (default ``"spawn"``: immune to
        fork-with-threads hazards, and it proves plan shipping works — a
        spawned worker has no inherited interpreter state to fall back
        on).  Pass ``"fork"`` on POSIX for faster worker startup.

    Workers are spawned lazily on first :meth:`serve` and stay alive
    across loops (plans ship once, not once per loop); a crashed worker
    is respawned on detection.  :meth:`close` stops the fleet; the pool
    is a context manager.
    """

    def __init__(
        self,
        dtd: Union[DTD, str, None] = None,
        workers: int = 2,
        validate: bool = True,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = 128,
        start_method: str = "spawn",
        obs: Optional[Observability] = None,
    ):
        super().__init__(dtd, workers, plan_cache, cache_size, obs=obs)
        self.validate = validate
        self._ctx = multiprocessing.get_context(start_method)
        self._dtd_blob = pickle.dumps(self.dtd, protocol=pickle.HIGHEST_PROTOCOL)
        # The parent's registration table: compiles through the shared
        # cache and refcounts structures; it never serves a document.
        self._registry = QueryService(self.dtd, plan_cache=self.plan_cache)
        self._slots = [_WorkerSlot() for _ in range(workers)]
        # Parent-side mirror of each worker's cumulative pass metrics,
        # rebuilt from the PassMetrics every served document carries home.
        self._slot_metrics = [ServiceMetrics() for _ in range(workers)]
        self._started = False
        self._closed = False
        self._ship_count = 0
        self._ship_bytes = 0
        # Workers trace their passes only when the parent merges the spans
        # into a trace; stage histograms come from the shipped PassMetrics.
        self._trace_workers = obs is not None and obs.tracer is not None

    # ---------------------------------------------------------- back hooks

    def _mirror_register(self, query: str, key: str) -> RegisteredQuery:
        # Compile (or hit) in the parent — the only optimizer run for this
        # query across the whole pool.  A structure the table did not hold
        # yet ships its artifact to every live worker with this register
        # message; an alias of a live structure sends none.
        created = self._registry.metrics.structures_registered
        registration = self._registry.register(query, key=key)
        if self._started:
            artifact = None
            if self._registry.metrics.structures_registered != created:
                artifact = PlanArtifact.from_plan(registration.entry)
            self._broadcast(("register", key, registration.structure.skey, query, artifact))
        return registration

    def _mirror_unregister(self, key: str) -> None:
        self._registry.unregister(key)  # an unknown key raises here
        if self._started:
            self._broadcast(("unregister", key))

    def _broadcast(self, message: tuple) -> None:
        """Send one registration change to every live worker."""
        for slot in self._slots:
            if slot.alive:
                try:
                    self._send(slot, message)
                except (BrokenPipeError, OSError):
                    pass  # died under us; respawn re-sends everything

    def _worker_metrics(self) -> List[ServiceMetrics]:
        return list(self._slot_metrics)

    def _ship_stats(self) -> Tuple[int, int]:
        return (self._ship_count, self._ship_bytes)

    @property
    def structures(self) -> "Dict[str, PlanStructure]":
        """Live shipped structures by key (the parent table's refcounted view)."""
        return self._registry.structures

    @property
    def workers(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------ worker fleet

    def _send(self, slot: _WorkerSlot, message: tuple,
              trace_id: Optional[str] = None) -> None:
        """Send one inbox message; a ``register`` carrying an artifact is
        counted, logged and (inside a document's trace) spanned as a ship."""
        started = time.perf_counter()
        slot.inbox.send(message)
        artifact = message[-1] if message[0] == "register" else None
        if artifact is None:
            return
        skey, size = message[2], len(artifact.payload)
        self._ship_count += 1
        self._ship_bytes += size
        if self.obs is not None:
            self.obs.log("pool.ship", key=skey, bytes=size, trace_id=trace_id)
            # A ship span only inside a document's trace (a crash-respawn
            # re-shipment): registration-time shipping has no trace to join.
            if trace_id is not None:
                self.obs.record_span(
                    "pool.ship",
                    trace_id,
                    time.perf_counter() - started,
                    key=skey,
                    bytes=size,
                )

    def _register_messages(self) -> List[tuple]:
        """The ``register`` messages that rebuild the parent's table in a
        fresh worker: every registration in order, the first of each
        structure carrying its artifact."""
        shipped = set()
        messages = []
        for key, registration in self._registry.registrations.items():
            structure = registration.structure
            artifact = None
            if structure.skey not in shipped:
                shipped.add(structure.skey)
                artifact = PlanArtifact.from_plan(structure.entry)
            messages.append(("register", key, structure.skey, registration.source, artifact))
        return messages

    def _spawn_slot(self, worker_id: int, messages: List[tuple],
                    trace_id: Optional[str] = None) -> None:
        """Start (or restart) one worker process and send it ``messages``."""
        slot = self._slots[worker_id]
        inbox_read, inbox_write = self._ctx.Pipe(duplex=False)
        results_read, results_write = self._ctx.Pipe(duplex=False)
        slot.inbox = inbox_write
        slot.results = results_read
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._dtd_blob,
                self.validate,
                self._trace_workers,
                inbox_read,
                results_write,
            ),
            name=f"process-pool-worker-{worker_id}",
            daemon=True,
        )
        slot.process.start()
        # Close the child's pipe ends in the parent: EOF semantics on the
        # result pipe then track the worker's life, not ours.
        inbox_read.close()
        results_write.close()
        for message in messages:
            self._send(slot, message, trace_id=trace_id)

    def _ensure_started(self) -> None:
        if self._closed:
            raise RuntimeError("the process pool is closed")
        if self._started:
            return
        messages = self._register_messages()
        for worker_id in range(len(self._slots)):
            self._spawn_slot(worker_id, messages)
        self._started = True

    def _respawn(self, worker_id: int, trace_id: Optional[str] = None) -> None:
        slot = self._slots[worker_id]
        exitcode = slot.process.exitcode if slot.process is not None else None
        started = time.perf_counter()
        slot.close_channels()
        slot.respawns += 1
        self._spawn_slot(worker_id, self._register_messages(), trace_id=trace_id)
        if self.obs is not None:
            self.obs.log(
                "pool.respawn",
                worker=worker_id,
                exitcode=exitcode,
                respawns=slot.respawns,
                trace_id=trace_id,
            )
            if trace_id is not None:
                # Join the crashed document's trace: the respawn (and the
                # re-shipments inside _spawn_slot) carry its trace id.
                self.obs.record_span(
                    "pool.respawn",
                    trace_id,
                    time.perf_counter() - started,
                    worker=worker_id,
                    exitcode=exitcode,
                )

    @property
    def worker_respawns(self) -> int:
        """How many crashed worker slots have been respawned, in total."""
        return sum(slot.respawns for slot in self._slots)

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """OS pid of each live worker process (``None`` for a dead slot).

        For out-of-band inspection — attaching a profiler, reading
        ``/proc/<pid>`` accounting (the S6 overhead benchmark sums worker
        CPU time this way).  Pids change when a crashed slot respawns.
        """
        return {
            worker_id: (slot.process.pid if slot.alive else None)
            for worker_id, slot in enumerate(self._slots)
        }

    def worker_compilations(self) -> Dict[int, int]:
        """Optimizer runs each worker reported (all zero: plans are shipped).

        The compile-once proof, worker side: every served document carries
        the worker's cumulative plan-cache miss count home, and it must
        stay 0 — the parent's cache is the only place compilation happens.
        """
        return {
            worker_id: slot.compiled for worker_id, slot in enumerate(self._slots)
        }

    # ------------------------------------------------- the pipe transport

    def _submit(self, worker_id, index, document, chunk_size, trace_id) -> None:
        slot = self._slots[worker_id]
        if not slot.alive:  # died idle: discovered as it is handed work
            self._respawn(worker_id)
        message = ("doc", index, self._shippable(document), chunk_size, trace_id)
        try:
            slot.inbox.send(message)
        except (BrokenPipeError, OSError):
            # Died between the liveness check and the send: hand the
            # document to a fresh worker instead.
            self._respawn(worker_id, trace_id=trace_id)
            slot.inbox.send(message)

    @staticmethod
    def _shippable(
        document: Union[str, io.TextIOBase, DocumentSource]
    ) -> Union[str, DocumentSource]:
        """A picklable form of ``document`` for the worker inbox.

        Text and :class:`DocumentSource` recipes ship as they are; a live
        file-like object cannot cross the process boundary, so it is
        drained to text *here* — convenient, but it serializes that
        document's delivery on the parent (ship a ``DocumentSource`` when
        delivery should overlap).
        """
        if isinstance(document, (str, DocumentSource)):
            return document
        return "".join(iter(lambda: document.read(_READ_CHUNK), ""))

    def _receive(self, worker_id: int) -> Optional[ServedDocument]:
        """Consume one message from a worker's result pipe, if any.

        Returns the :class:`ServedDocument` of a ``served`` message (its
        worker-side spans merged into the parent's trace), raises for
        ``fatal`` ones, and returns ``None`` when the pipe had no complete
        message (including the EOF a dying worker leaves behind — the
        sentinel path owns that case).
        """
        slot = self._slots[worker_id]
        try:
            if not slot.results.poll():
                return None
            message = slot.results.recv()
        except (EOFError, OSError):
            return None
        if message[0] == "served":
            _, _, served, slot.compiled, spans = message
            self._merge_worker_spans(spans)
            return served
        # "fatal": a non-Exception escaped a worker pass; propagate, like
        # the in-process pools do.
        del self._in_flight[worker_id]
        raise message[2]

    def _merge_worker_spans(self, spans: List[Dict]) -> None:
        """Re-emit one reply's worker-side spans into the parent's tracer —
        what makes ``--trace-out`` a *single merged* trace file."""
        if self._trace_workers:
            for span in spans:
                self.obs.tracer.emit(span)

    def _fold(self, served: ServedDocument) -> None:
        """The metric delta of one worker pass *is* the ``ServedDocument``:
        fold it into the slot's mirrored service metrics and the parent
        registry's duration histograms."""
        if served.ok:
            self._slot_metrics[served.worker].record_pass(
                served.metrics, len(served.results)
            )
            record_pass_durations(self.obs, served.metrics)

    def _wait(self) -> Optional[ServedDocument]:
        """One outcome: a worker's result, or a detected crash.

        Multiplexes every live worker's result pipe *and* process sentinel
        through ``connection.wait`` — a result arriving and a worker dying
        are both events.  When a sentinel fires, the dead worker's pipe is
        drained first (a worker may send its result and then exit; that
        document was served, not crashed); only then is a still in-flight
        document folded into a :class:`WorkerCrashError` outcome and the
        slot respawned, inside the document's trace.  Returns ``None``
        when the sweep only changed fleet state (idle crash, stale wakeup)
        — the loop re-enters dispatch.
        """
        waitables = {}
        for worker_id, slot in enumerate(self._slots):
            waitables[slot.results] = worker_id
            waitables[slot.process.sentinel] = worker_id
        ready = connection.wait(list(waitables), timeout=_WAIT_STEP_SECONDS)
        # Results first: anything a worker managed to send counts as
        # served, even if the worker is already gone.
        for item in ready:
            worker_id = waitables[item]
            if item is self._slots[worker_id].results:
                result = self._receive(worker_id)
                if result is not None:
                    return result
        # Then deaths.
        for item in ready:
            worker_id = waitables[item]
            slot = self._slots[worker_id]
            if item is not slot.results and not slot.alive:
                # Drain the last messages the worker sent before dying.
                result = self._receive(worker_id)
                exitcode = slot.process.exitcode
                flight = self._in_flight.get(worker_id)
                crashed = result is None and flight is not None
                self._respawn(
                    worker_id, trace_id=flight.trace_id if crashed else None
                )
                if crashed:
                    result = ServedDocument(
                        index=flight.index,
                        results={},
                        metrics=PassMetrics(),
                        outcome="error",
                        error=WorkerCrashError(
                            f"worker process {worker_id} died while serving "
                            f"document {flight.index}",
                            exitcode=exitcode,
                        ),
                        worker=worker_id,
                    )
                if result is not None:
                    return result
        return None

    def _drain(self) -> None:
        """After a loop ends or is closed early: wait out in-flight passes.

        Undelivered results are discarded (they were never served to
        anyone), and workers end the loop idle, ready for the next one.
        A worker that crashes during the drain is respawned without an
        outcome: the document's consumer is gone.
        """
        while self._in_flight:
            for worker_id in list(self._in_flight):
                slot = self._slots[worker_id]
                try:
                    if self._receive(worker_id) is not None:
                        del self._in_flight[worker_id]
                except Exception:
                    pass  # a shipped-home fatal: _receive freed the slot
                if worker_id in self._in_flight and not slot.alive:
                    self._respawn(worker_id)
                    del self._in_flight[worker_id]
            if self._in_flight:
                pending = [self._slots[worker_id] for worker_id in self._in_flight]
                connection.wait(
                    [slot.results for slot in pending]
                    + [slot.process.sentinel for slot in pending],
                    timeout=_WAIT_STEP_SECONDS,
                )

    # ------------------------------------------------------------ lifecycle

    def close(self, join_timeout: float = 5.0) -> None:
        """Stop every worker process and release the pipes.

        Live workers get a ``stop`` message (their inbox EOF would do,
        too) and are joined; one that does not exit within
        ``join_timeout`` seconds is terminated.  Safe to call twice; the
        pool cannot serve again afterwards.
        """
        if self._closed:
            return
        self._closed = True
        if self._started:
            for slot in self._slots:
                if slot.alive:
                    try:
                        slot.inbox.send(("stop",))
                    except Exception:
                        pass
            deadline = time.monotonic() + join_timeout
            for slot in self._slots:
                if slot.process is None:
                    continue
                remaining = max(0.0, deadline - time.monotonic())
                slot.process.join(remaining)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(1.0)
                slot.close_channels()

    def __enter__(self) -> "ProcessServicePool":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net; daemons die anyway
        try:
            self.close(join_timeout=0.5)
        except Exception:
            pass
