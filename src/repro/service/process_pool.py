"""Multi-process service pool: plan shipping breaks the GIL cap.

The thread-backed :class:`~repro.service.pool.ServicePool` flatlines at
~1× on CPU-bound document streams — under CPython's GIL its workers
interleave evaluation instead of parallelizing it (S4 reports this
honestly).  :class:`ProcessServicePool` is the same pool architecture with
the workers moved into separate *processes*, where evaluation runs truly
in parallel on separate cores:

* **compile once, ship once per structure** — the parent compiles every
  registration through the shared
  :class:`~repro.runtime.plan_cache.PlanCache` (one optimizer run per
  distinct query, exactly like the in-process pools), dedups the results
  by :func:`~repro.runtime.plan_cache.structure_key`, and ships one
  :class:`~repro.runtime.plan_cache.PlanArtifact` — query source + DTD
  fingerprint + pickled plan — *per distinct structure* to each worker;
  registrations then subscribe to shipped structures by key, so 10k
  aliases of 100 structures cost 100 artifact sends per worker, not 10k.
  Workers rebuild each plan once with
  :meth:`~repro.runtime.plan_cache.PlanArtifact.load_plan` and register
  aliases against it with
  :meth:`~repro.service.service.QueryService.register_compiled`; they
  never parse, never optimize, and (under the default ``spawn`` start
  method) provably cannot be reusing the parent's in-memory plans.
  Shipping volume is reported as ``ship_count`` / ``ship_bytes`` on
  :class:`~repro.service.metrics.PoolMetrics` (artifact sends only —
  alias subscriptions are a few bytes and not counted).
* **sharding with backpressure** — :meth:`serve` assigns each document to
  an idle worker and yields :class:`~repro.service.service.ServedDocument`
  results as they complete, tagged with ``worker`` and source ``index``.
  The parent pulls a document from the source only when a worker is free,
  so at most ``workers`` documents are in flight beyond what the consumer
  has taken — the same bounded behaviour as the thread pool's result
  queue.
* **fault isolation, now including crashes** — a document whose pass
  raises is delivered as an error-tagged outcome (exception sanitized for
  the trip home), like the in-process pools.  Beyond them: a worker
  process that *dies* (segfault, OOM kill, ``os._exit``) is detected, its
  in-flight document is delivered as an error outcome carrying
  :class:`~repro.errors.WorkerCrashError`, and the slot is respawned with
  the full registration set re-shipped — the stream keeps serving.

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

    ("plan", skey, artifact)           rebuild + stash one structure's plan
    ("register", key, skey, source)    register an alias of a shipped plan
    ("unregister", key)                drop a registration
    ("drop", skey)                     discard a plan no registration uses
    ("doc", index, document, chunk)    run one pass, reply on the result pipe
    ("stop",)                          exit cleanly (EOF on the inbox, too)

Because registration messages and documents share one ordered channel, a
worker can never evaluate a document against a stale registration set —
the parent flushes registration changes (allowed only between serve
loops) before the next loop's documents enter the inbox.

**Document forms.**  A document may be XML text (shipped verbatim), a
:class:`DocumentSource` (a small picklable recipe — e.g.
:class:`FileDocument` — that the *worker* materializes, so bulky or
latency-bearing delivery happens in the worker, off the parent's dispatch
loop), or a file-like object (drained to text in the parent before
shipping — convenient, but delivery then serializes on the parent;
prefer a ``DocumentSource`` for streams whose delivery should overlap).

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
import os
import pickle
import time
from multiprocessing import connection
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.optimizer import OptimizerPipeline
from repro.dtd.schema import DTD
from repro.errors import WorkerCrashError
from repro.obs import MemorySink, Observability, Tracer, new_trace_id
from repro.runtime.plan_cache import PlanArtifact, PlanCache, structure_key
from repro.service.metrics import PassMetrics, ServiceMetrics
from repro.service.pool_core import PoolCore
from repro.service.service import QueryService, ServedDocument
from repro.service.session import (
    PlanStructure,
    RegisteredQuery,
    record_pass_observations,
)

#: Upper bound (seconds) on one `connection.wait` — results and process
#: deaths are both wait events, so this is a safety net against missed
#: wakeups, not the detection latency.
_WAIT_STEP_SECONDS = 0.25

#: Default read granularity when draining a file-like document.
_READ_CHUNK = 1 << 16


class DocumentSource:
    """A picklable recipe for a document, materialized in the worker.

    Shipping a live file handle or socket across processes is impossible;
    shipping the whole text through the parent serializes delivery on the
    dispatch loop.  A ``DocumentSource`` ships the *recipe* instead: the
    worker calls :meth:`open` and feeds whatever it returns (XML text or a
    file-like object, which the worker drains and closes).  Subclasses
    must be picklable — module-level classes with plain attributes.
    """

    def open(self) -> Union[str, io.TextIOBase]:
        """Materialize the document (called in the worker process)."""
        raise NotImplementedError


class FileDocument(DocumentSource):
    """A document read from ``path`` by the worker that serves it.

    The parent ships only the path, so file I/O happens in the worker,
    overlapping with other workers' evaluation — the process-pool
    equivalent of the thread pool's streamed file handles.
    """

    def __init__(self, path: str):
        self.path = path

    def open(self) -> io.TextIOBase:
        return open(self.path, "r", encoding="utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileDocument({self.path!r})"


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
    exc.__traceback__ = None
    if exc.__cause__ is not None or exc.__context__ is not None:
        exc.__cause__ = None
        exc.__context__ = None
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _serve_one_in_worker(
    service: QueryService,
    worker_id: int,
    index: int,
    document: Union[str, io.TextIOBase, DocumentSource],
    chunk_size: int,
    crash_marker: Optional[str],
    trace_id: Optional[str] = None,
) -> ServedDocument:
    """One worker pass over one document, fault-isolated (worker side).

    *Everything* an ordinary ``Exception`` can reach is inside the
    isolation — materializing a :class:`DocumentSource` included (a file
    deleted between dispatch and the worker's ``open()`` is a failed
    *document*, not a failed worker, exactly as in the thread pool).
    """
    closer = None
    shared_pass = None
    try:
        if isinstance(document, DocumentSource):
            document = document.open()
            if hasattr(document, "close"):
                closer = document.close
        if (
            crash_marker is not None
            and isinstance(document, str)
            and crash_marker in document
        ):
            # Fault injection for tests/benches: die *mid-pass*, with the
            # document genuinely in flight, the way a segfault or OOM kill
            # would land.  Never triggers unless the pool was built with a
            # crash marker.
            shared_pass = service.open_pass(chunk_size=chunk_size, trace_id=trace_id)
            shared_pass.feed(document[: len(document) // 2])
            os._exit(3)
        shared_pass = service.open_pass(chunk_size=chunk_size, trace_id=trace_id)
        service._feed_document(shared_pass, document)
        results = shared_pass.finish()
    except Exception as exc:
        if shared_pass is not None:
            shared_pass.abort()
        return ServedDocument(
            index=index,
            results={},
            metrics=shared_pass.metrics if shared_pass is not None else PassMetrics(),
            outcome="error",
            error=_sanitize_exception(exc),
            worker=worker_id,
        )
    finally:
        if closer is not None:
            try:
                closer()
            except Exception:
                pass
    return ServedDocument(
        index=index,
        results=results,
        metrics=shared_pass.metrics,
        worker=worker_id,
    )


def _worker_main(
    worker_id: int,
    dtd_blob: bytes,
    validate: bool,
    crash_marker: Optional[str],
    observe: bool,
    inbox,
    results,
) -> None:
    """A worker process: one mirrored ``QueryService``, driven by messages.

    Top-level (not a closure) so the ``spawn`` start method can import it.
    The service compiles nothing: every plan arrives as a shipped artifact
    — once per distinct structure (``plan`` messages, stashed by structure
    key) — and registrations subscribe to stashed plans by key
    (``register`` messages), through ``register_compiled``.  Each served
    document is
    answered with one ``("served", index, ServedDocument, compiled_here,
    spans)`` message on this worker's own result pipe; ``compiled_here``
    (the worker's plan-cache miss counter) lets the parent *verify* the
    worker never ran the optimizer.

    With ``observe`` set the worker runs its passes under an in-memory
    tracer: pass and stage spans — carrying the trace id the parent
    stamped into the ``doc`` message — are drained after each document and
    shipped home in the ``served`` reply, where the parent merges them
    into its own trace file and folds their stage durations into its
    metrics registry.  The worker keeps no registry of its own; its
    metric delta *is* the :class:`PassMetrics` every served document
    already carries.
    """
    dtd = pickle.loads(dtd_blob)
    span_sink = MemorySink() if observe else None
    worker_obs = Observability(tracer=Tracer(span_sink)) if observe else None
    service = QueryService(dtd, validate=validate, obs=worker_obs)
    # Shipped plans by structure key: each artifact is unpickled once and
    # every alias registration reuses the same plan object, so the
    # service-side dedup (structure keys are memoized on the entry) is
    # cheap in the worker too.
    plans: Dict[str, "CompiledQueryPlan"] = {}
    while True:
        try:
            message = inbox.recv()
        except EOFError:  # parent closed the inbox: shut down
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "plan":
            _, skey, artifact = message
            plans[skey] = artifact.load_plan()
        elif kind == "register":
            _, key, skey, source = message
            service.register_compiled(plans[skey], key=key, source=source)
        elif kind == "unregister":
            service.unregister(message[1])
        elif kind == "drop":
            plans.pop(message[1], None)
        elif kind == "doc":
            _, index, document, chunk_size, trace_id = message
            try:
                served = _serve_one_in_worker(
                    service, worker_id, index, document, chunk_size,
                    crash_marker, trace_id,
                )
            except BaseException as exc:  # non-Exception: report, then die
                results.send(("fatal", index, _sanitize_exception(exc)))
                raise
            compiled_here = service.plan_cache.stats.misses
            spans = span_sink.drain() if span_sink is not None else []
            results.send(("served", index, served, compiled_here, spans))
    results.close()


class _WorkerSlot:
    """Parent-side handle of one worker process."""

    __slots__ = ("process", "inbox", "results", "pending", "respawns",
                 "compiled", "trace", "sent_at")

    def __init__(self):
        self.process = None
        #: Parent's write end of the worker's inbox pipe.
        self.inbox = None
        #: Parent's read end of the worker's result pipe.
        self.results = None
        #: Source index of the document currently in flight, or ``None``.
        self.pending: Optional[int] = None
        self.respawns = 0
        #: Optimizer runs the worker reported (must stay 0: plans are
        #: shipped, never recompiled).
        self.compiled = 0
        #: Trace id of the in-flight document (tracing only) — kept on the
        #: slot so a crash-respawn's spans join the document's trace.
        self.trace: Optional[str] = None
        #: ``(wall, perf_counter)`` stamp of the in-flight dispatch, for
        #: the parent-side ``pool.shard`` span.
        self.sent_at: Optional[Tuple[float, float]] = None

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
        _crash_marker: Optional[str] = None,
    ):
        super().__init__(dtd, workers, plan_cache, cache_size, obs=obs)
        self.validate = validate
        self._pipeline = OptimizerPipeline(self.dtd)
        self._ctx = multiprocessing.get_context(start_method)
        self._crash_marker = _crash_marker
        self._dtd_blob = pickle.dumps(self.dtd, protocol=pickle.HIGHEST_PROTOCOL)
        self._registrations: Dict[str, RegisteredQuery] = {}
        # Structure-level dedup mirror: one live PlanStructure and one
        # pickled artifact per distinct structure key, refcounted by the
        # registrations subscribed to it (same discipline as
        # QueryService's own structure table).
        self._structures: "Dict[str, PlanStructure]" = {}
        self._structure_artifacts: "Dict[str, PlanArtifact]" = {}
        self._slots = [_WorkerSlot() for _ in range(workers)]
        # Parent-side mirror of each worker's cumulative pass metrics,
        # rebuilt from the PassMetrics every served document carries home.
        self._slot_metrics = [ServiceMetrics() for _ in range(workers)]
        self._started = False
        self._closed = False
        self._ship_count = 0
        self._ship_bytes = 0
        # Workers trace their passes whenever the parent can use the spans:
        # to merge into a trace file, or to fold stage durations into the
        # registry's histograms.
        self._observe_workers = obs is not None and (
            obs.tracer is not None or obs.metrics is not None
        )

    # ---------------------------------------------------------- back hooks

    def _mirror_register(self, query: str, key: str) -> RegisteredQuery:
        # Compile (or hit) in the parent — the only optimizer run for this
        # query across the whole pool — then ship *per structure*: the
        # first registration of a structure ships its artifact to every
        # live worker, later aliases send only a tiny subscription
        # message.  Workers spawned later get the full deduped artifact
        # set at spawn, through the same counted path.
        entry, from_cache = self.plan_cache.get_or_compile(query, self._pipeline)
        skey = structure_key(entry)
        structure = self._structures.get(skey)
        new_structure = structure is None
        if structure is None:
            structure = PlanStructure(skey, entry)
            self._structures[skey] = structure
            self._structure_artifacts[skey] = PlanArtifact.from_plan(entry)
        structure.refcount += 1
        registration = RegisteredQuery(
            key, entry, from_cache=from_cache, structure=structure, source=query
        )
        displaced = self._registrations.get(key)
        self._registrations[key] = registration
        if self._started:
            artifact = self._structure_artifacts[skey]
            for slot in self._slots:
                if slot.alive:
                    try:
                        if new_structure:
                            self._ship(slot, skey, artifact)
                        slot.inbox.send(("register", key, skey, query))
                    except (BrokenPipeError, OSError):
                        pass  # died under us; respawn re-ships everything
        if displaced is not None:
            # Release after acquiring: replacing an alias with another
            # alias of the same structure must not drop the shared plan.
            self._release_structure(displaced)
        for metrics in self._slot_metrics:
            if displaced is not None:
                metrics.queries_replaced += 1
            metrics.queries_registered += 1
        return registration

    def _release_structure(self, registration: RegisteredQuery) -> None:
        """Drop one registration's structure subscription (parent side).

        The last subscriber's release discards the parent's artifact and
        tells every live worker to discard its stashed plan.
        """
        structure = registration.structure
        structure.refcount -= 1
        if (
            structure.refcount == 0
            and self._structures.get(structure.skey) is structure
        ):
            del self._structures[structure.skey]
            del self._structure_artifacts[structure.skey]
            if self._started:
                for slot in self._slots:
                    if slot.alive:
                        try:
                            slot.inbox.send(("drop", structure.skey))
                        except (BrokenPipeError, OSError):
                            pass  # died under us; respawn re-ships everything

    def _mirror_unregister(self, key: str) -> None:
        registration = self._registrations.pop(key)
        if self._started:
            for slot in self._slots:
                if slot.alive:
                    try:
                        slot.inbox.send(("unregister", key))
                    except (BrokenPipeError, OSError):
                        pass  # died under us; respawn re-ships everything
        self._release_structure(registration)
        for metrics in self._slot_metrics:
            metrics.queries_unregistered += 1

    def _worker_metrics(self) -> List[ServiceMetrics]:
        return list(self._slot_metrics)

    def _ship_stats(self) -> Tuple[int, int]:
        return (self._ship_count, self._ship_bytes)

    @property
    def registrations(self) -> Dict[str, RegisteredQuery]:
        """The mirrored registrations, by key (the parent's view)."""
        return dict(self._registrations)

    @property
    def structures(self) -> "Dict[str, PlanStructure]":
        """Live shipped structures by key (the parent's refcounted view)."""
        return dict(self._structures)

    @property
    def workers(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------ worker fleet

    def _ship(
        self,
        slot: _WorkerSlot,
        skey: str,
        artifact: PlanArtifact,
        trace_id: Optional[str] = None,
    ) -> None:
        started = time.perf_counter()
        slot.inbox.send(("plan", skey, artifact))
        self._ship_count += 1
        self._ship_bytes += len(artifact.payload)
        if self.obs is not None:
            self.obs.log(
                "pool.ship", key=skey, bytes=len(artifact.payload), trace_id=trace_id
            )
            # A ship span only inside a document's trace (a crash-respawn
            # re-shipment): registration-time shipping has no trace to join.
            if trace_id is not None:
                self.obs.record_span(
                    "pool.ship",
                    trace_id,
                    time.perf_counter() - started,
                    key=skey,
                    bytes=len(artifact.payload),
                )

    def _spawn_slot(self, worker_id: int, trace_id: Optional[str] = None) -> None:
        """Start (or restart) one worker process and ship it every plan."""
        slot = self._slots[worker_id]
        inbox_read, inbox_write = self._ctx.Pipe(duplex=False)
        results_read, results_write = self._ctx.Pipe(duplex=False)
        slot.inbox = inbox_write
        slot.results = results_read
        slot.pending = None
        slot.trace = None
        slot.sent_at = None
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._dtd_blob,
                self.validate,
                self._crash_marker,
                self._observe_workers,
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
        # Re-ship the deduped set: one artifact per live structure, then
        # the alias subscriptions in registration order.
        for skey, artifact in self._structure_artifacts.items():
            self._ship(slot, skey, artifact, trace_id=trace_id)
        for key, registration in self._registrations.items():
            slot.inbox.send(
                ("register", key, registration.structure.skey, registration.source)
            )

    def _ensure_started(self) -> None:
        if self._closed:
            raise RuntimeError("the process pool is closed")
        if self._started:
            return
        for worker_id in range(len(self._slots)):
            self._spawn_slot(worker_id)
        self._started = True

    def _respawn(self, worker_id: int, trace_id: Optional[str] = None) -> None:
        slot = self._slots[worker_id]
        exitcode = slot.process.exitcode if slot.process is not None else None
        started = time.perf_counter()
        slot.close_channels()
        slot.respawns += 1
        self._spawn_slot(worker_id, trace_id=trace_id)
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

    # ------------------------------------------------------------- serving

    def serve(
        self,
        documents: Iterable[Union[str, io.TextIOBase, DocumentSource]],
        chunk_size: int = 256,
    ) -> Iterator[ServedDocument]:
        """Shard ``documents`` across the worker processes.

        Yields one :class:`ServedDocument` per document, in *completion*
        order, tagged with ``worker`` and source ``index``.  Dispatch is
        demand-driven: the next document is pulled from the source only
        when a worker is idle, so at most ``workers`` documents are in
        flight (plus their results piped) beyond what the consumer has
        taken — a slow consumer pauses the shard.

        **Fault isolation**: a document whose pass raises in the worker
        comes back as ``outcome == "error"`` with the (sanitized)
        exception; a worker process that *dies* mid-document yields an
        error outcome carrying :class:`~repro.errors.WorkerCrashError`
        with the exit code, and the slot is respawned with all plans
        re-shipped — later documents are unaffected.  (A worker that
        manages to send its result and *then* die is not a failed
        document: the result is delivered, the slot quietly respawned.)
        Only an error from the source iterator itself propagates and ends
        the loop.

        Closing the generator early waits for in-flight passes, discards
        their undelivered results, and leaves the fleet alive for the
        next loop.
        """
        self._begin_serving()
        try:
            self._ensure_started()
        except BaseException:
            self._end_serving()
            raise
        source = enumerate(documents)
        source_exhausted = False
        try:
            while True:
                # Dispatch to every idle worker (respawning crashed idle
                # slots as they are discovered).
                while not source_exhausted:
                    idle_id = next(
                        (
                            worker_id
                            for worker_id, slot in enumerate(self._slots)
                            if slot.pending is None
                        ),
                        None,
                    )
                    if idle_id is None:
                        break
                    slot = self._slots[idle_id]
                    if not slot.alive:
                        self._respawn(idle_id)
                    try:
                        index, document = next(source)
                    except StopIteration:
                        source_exhausted = True
                        break
                    document = self._shippable(document)
                    trace_id = (
                        new_trace_id()
                        if self.obs is not None and self.obs.tracer is not None
                        else None
                    )
                    try:
                        slot.inbox.send(("doc", index, document, chunk_size, trace_id))
                    except (BrokenPipeError, OSError):
                        # Died between the liveness check and the send:
                        # hand the document to a fresh worker instead.
                        self._respawn(idle_id, trace_id=trace_id)
                        slot.inbox.send(("doc", index, document, chunk_size, trace_id))
                    slot.pending = index
                    slot.trace = trace_id
                    slot.sent_at = (time.time(), time.perf_counter())
                if source_exhausted and all(
                    slot.pending is None for slot in self._slots
                ):
                    return
                result = self._next_result()
                if result is None:
                    continue
                self._record_outcome(result.worker, result.ok)
                yield result
        finally:
            self._drain_in_flight()
            self._end_serving()

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
        parts = []
        while True:
            chunk = document.read(_READ_CHUNK)
            if not chunk:
                break
            parts.append(chunk)
        return "".join(parts)

    def _receive(self, worker_id: int) -> Optional[ServedDocument]:
        """Consume one message from a worker's result pipe, if any.

        Returns the delivered :class:`ServedDocument` for ``served``
        messages, raises for ``fatal`` ones, and returns ``None`` when the
        pipe had no complete message (including the EOF a dying worker
        leaves behind — the sentinel path owns that case).
        """
        slot = self._slots[worker_id]
        try:
            if not slot.results.poll():
                return None
            message = slot.results.recv()
        except (EOFError, OSError):
            return None
        kind = message[0]
        if kind == "served":
            _, index, served, compiled_here, spans = message
            slot.pending = None
            slot.compiled = compiled_here
            if served.ok:
                self._slot_metrics[worker_id].record_pass(
                    served.metrics, len(served.results)
                )
            self._fold_worker_observations(slot, served, spans)
            slot.trace = None
            slot.sent_at = None
            return served
        # "fatal": a non-Exception escaped a worker pass; propagate, like
        # the in-process pools do.
        _, index, error = message
        slot.pending = None
        slot.trace = None
        slot.sent_at = None
        raise error

    def _fold_worker_observations(
        self, slot: _WorkerSlot, served: ServedDocument, spans: List[Dict]
    ) -> None:
        """Merge one worker reply's span and metric deltas into the parent.

        Worker-side spans are re-emitted into the parent's tracer — this
        is what makes ``--trace-out`` a *single merged* trace file — and
        their ``pass.<stage>`` durations land in the parent registry's
        stage histograms (the worker has no registry; spans double as the
        stage-latency delta).  The pass-counter delta is the
        :class:`PassMetrics` the served document carries.  A parent-side
        ``pool.shard`` span brackets the document's whole trip through
        the pipes.
        """
        obs = self.obs
        if obs is None:
            return
        if obs.tracer is not None:
            for span in spans:
                obs.tracer.emit(span)
            if slot.trace is not None and slot.sent_at is not None:
                sent_wall, sent_perf = slot.sent_at
                obs.tracer.record(
                    "pool.shard",
                    slot.trace,
                    time.perf_counter() - sent_perf,
                    start=sent_wall,
                    worker=served.worker,
                    index=served.index,
                )
        if obs.metrics is not None:
            for span in spans:
                name = span.get("name", "")
                if name.startswith("pass."):
                    obs.observe_stage(name[5:], span.get("duration_s", 0.0))
            if served.ok:
                record_pass_observations(obs, served.metrics, len(served.results))
        if not served.ok:
            obs.log(
                "pool.fault",
                worker=served.worker,
                index=served.index,
                error=type(served.error).__name__,
                trace_id=slot.trace,
            )

    def _next_result(self) -> Optional[ServedDocument]:
        """One delivered outcome: a worker's result, or a detected crash.

        Multiplexes every live worker's result pipe *and* process sentinel
        through ``connection.wait`` — a result arriving and a worker dying
        are both events.  When a sentinel fires, the dead worker's pipe is
        drained first (a worker may send its result and then exit; that
        document was served, not crashed); only then is a still-pending
        document folded into a :class:`WorkerCrashError` outcome and the
        slot respawned.  Returns ``None`` when the sweep only changed
        fleet state (idle crash, stale wakeup) — the caller re-enters
        dispatch.
        """
        waitables = {}
        for worker_id, slot in enumerate(self._slots):
            if slot.process is None:
                continue
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
                if result is not None:
                    self._respawn_quietly(worker_id)
                    return result
                exitcode = slot.process.exitcode
                pending = slot.pending
                trace = slot.trace
                sent_at = slot.sent_at
                self._respawn(worker_id, trace_id=trace)
                if pending is not None:
                    obs = self.obs
                    if obs is not None:
                        obs.log(
                            "pool.fault",
                            worker=worker_id,
                            index=pending,
                            error="WorkerCrashError",
                            exitcode=exitcode,
                            trace_id=trace,
                        )
                        if trace is not None and sent_at is not None:
                            obs.record_span(
                                "pool.shard",
                                trace,
                                time.perf_counter() - sent_at[1],
                                start=sent_at[0],
                                worker=worker_id,
                                index=pending,
                                outcome="error",
                            )
                    return ServedDocument(
                        index=pending,
                        results={},
                        metrics=PassMetrics(),
                        outcome="error",
                        error=WorkerCrashError(
                            f"worker process {worker_id} died while serving "
                            f"document {pending}",
                            exitcode=exitcode,
                        ),
                        worker=worker_id,
                    )
        return None

    def _respawn_quietly(self, worker_id: int) -> None:
        """Respawn a worker that died *between* documents (result already
        delivered): no outcome to report, just restore the slot."""
        if not self._slots[worker_id].alive:
            self._respawn(worker_id)

    def _drain_in_flight(self) -> None:
        """After a loop ends or is closed early: wait out in-flight passes.

        Undelivered results are discarded (they were never served to
        anyone — the same rule as the thread pool's drain), and workers
        end the loop idle, ready for the next one.  A worker that crashes
        during the drain is respawned without an outcome: the document's
        consumer is gone.
        """
        while any(slot.pending is not None for slot in self._slots):
            for worker_id, slot in enumerate(self._slots):
                if slot.pending is None:
                    continue
                try:
                    self._receive(worker_id)
                except Exception:
                    slot.pending = None
                if slot.pending is not None and not slot.alive:
                    self._respawn(worker_id)
            if any(slot.pending is not None for slot in self._slots):
                connection.wait(
                    [
                        slot.results
                        for slot in self._slots
                        if slot.pending is not None
                    ]
                    + [
                        slot.process.sentinel
                        for slot in self._slots
                        if slot.pending is not None
                    ],
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
