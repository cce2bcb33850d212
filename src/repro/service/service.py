"""The multi-query streaming service.

The paper's engine evaluates *one* schema-scheduled query per document scan.
:class:`QueryService` turns that into a serving architecture: N standing
XQuery registrations cost one parse of the XML stream, not N —

* **register** compiles each query through the shared
  :class:`~repro.core.optimizer.OptimizerPipeline`, behind the LRU
  :class:`~repro.runtime.plan_cache.PlanCache` keyed by
  ``(query text, DTD fingerprint)`` — the same cache type the solo
  :class:`~repro.engines.flux_engine.FluxEngine` compiles through, so a
  cache instance can be shared across engines and services;
* **run_pass / open_pass** execute *all* registered plans in a single
  shared pass over the document: one incremental parser feed, one shared
  validation, a union projection-path index that skips events irrelevant to
  every query once (see :mod:`repro.service.dispatcher`), and one
  push-based FluX runtime per query consuming the fan-out.

Ingestion is push-based and resumable: ``open_pass()`` returns a
:class:`~repro.service.session.SharedPass` whose ``feed(text)`` accepts
document chunks as they arrive (a socket, a file tail, ...) and whose
``finish()`` yields one byte-identical-to-solo
:class:`~repro.engines.base.QueryResult` per query.

Serving one whole document is one step,
:meth:`QueryService.serve_document` — materialize, open a pass, feed,
finish, record plan observations, tag a failure instead of raising — and
every serving face is that step: :meth:`QueryService.run_pass` and the
long-lived :meth:`QueryService.serve` loop (which re-raise a tagged
failure), the pools' workers (which deliver it), and its awaited twin on
:class:`~repro.service.async_service.AsyncQueryService`.  ``serve`` runs
one step per document of a stream, reusing the registered (and cached)
plans across passes while starting fresh per-query
:class:`~repro.runtime.evaluator.EvaluatorSession` runtimes for each
document.  Registrations may change between passes — each pass snapshots
the registrations current when it opens — and the service guards itself
against overlapping passes: it serves exactly one pass at a time and
:meth:`open_pass` raises :class:`~repro.errors.PassInProgressError` while
one is in flight.

Thread-safety contract: registration (``register``/``unregister``) and pass
execution are designed for a single driving thread; the plan cache below
them is fully thread-safe, so concurrent *compilation* (e.g. registering
the same query from several services sharing a cache) is safe, but one
``QueryService`` instance must not be driven from two threads at once.
"""

from __future__ import annotations

import contextlib
import io
import warnings
import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.core.optimizer import OptimizerPipeline
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engines.base import QueryResult
from repro.errors import PassInProgressError
from repro.obs import Observability
from repro.runtime.compiler import CompiledQueryPlan
from repro.runtime.plan_cache import PlanCache, dtd_fingerprint, structure_key
from repro.service.metrics import PassMetrics, ServiceMetrics
from repro.service.session import (
    PlanStructure,
    RegisteredQuery,
    SharedPass,
    record_plan_observations,
)

#: Default read granularity when a pass ingests a file-like document.
_READ_CHUNK = 1 << 16


@dataclass
class ServedDocument:
    """One document's outcome inside a serving loop.

    ``index`` is the document's position in the served sequence, ``results``
    maps registration keys to byte-identical-to-solo query results, and
    ``metrics`` is the pass's own accounting (the cumulative totals live on
    :attr:`QueryService.metrics`).

    :meth:`QueryService.serve_document` — the one step every serving face
    runs — tags a document that failed mid-pass instead of raising:
    ``outcome == "error"``, the exception on ``error``, empty ``results``,
    and the failed pass's partial ``metrics``.  The pools deliver such
    outcomes (*fault isolation*), tagged with the ``worker`` that served
    the document; :meth:`QueryService.serve` and
    :meth:`QueryService.run_pass` re-raise ``error`` instead, so they
    never yield one.
    """

    index: int
    results: Dict[str, QueryResult]
    metrics: PassMetrics
    #: ``"ok"`` or ``"error"``.
    outcome: str = "ok"
    #: The exception that aborted this document's pass, when ``outcome``
    #: is ``"error"``.
    error: Optional[BaseException] = None
    #: Pool worker id that served the document; ``None`` outside a pool.
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


class DocumentSource:
    """A recipe for a document, materialized where the document is served.

    Every serving face accepts one wherever it accepts a document:
    :meth:`QueryService.serve_document` calls :meth:`open`, feeds whatever
    it returns (XML text or a file-like object) and closes what was
    opened, all inside the step's fault isolation — a file deleted before
    its pass opens is a failed *document*.  A pool can therefore hold N
    recipes in flight without N open handles, and a
    :class:`~repro.service.process_pool.ProcessServicePool` ships the
    recipe instead of the text, so delivery happens in the worker, off
    the parent's dispatch loop.  Subclasses must be picklable —
    module-level classes with plain attributes.
    """

    def open(self) -> Union[str, io.TextIOBase]:
        """Materialize the document (called by the worker that serves it)."""
        raise NotImplementedError


class FileDocument(DocumentSource):
    """A document read from ``path`` by the worker that serves it."""

    def __init__(self, path: str):
        self.path = path

    def open(self) -> io.TextIOBase:
        return open(self.path, "r", encoding="utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileDocument({self.path!r})"


@contextlib.contextmanager
def materialized(document):
    """``document`` ready to feed; what a :class:`DocumentSource` opened
    is closed on exit."""
    if not isinstance(document, DocumentSource):
        yield document
        return
    opened = document.open()
    try:
        yield opened
    finally:
        if hasattr(opened, "close"):
            opened.close()


def finished_document(plan_cache: PlanCache, shared_pass, results, index: int,
                      worker: Optional[int]) -> ServedDocument:
    """The success half of the document step (sync and async renderings):
    fold the finished pass into the plan cache's observation sidecar (see
    :func:`~repro.service.session.record_plan_observations`) and tag it."""
    record_plan_observations(
        plan_cache, shared_pass.structure_subscribers, shared_pass.metrics, results
    )
    return ServedDocument(
        index=index, results=results, metrics=shared_pass.metrics, worker=worker
    )


def failed_document(shared_pass, exc: BaseException, index: int,
                    worker: Optional[int]) -> ServedDocument:
    """The failure half of the document step (sync and async renderings).

    Aborts ``shared_pass`` (``None`` when the failure came before it
    opened), releasing the service's slot and the per-query sessions; an
    ``Exception`` comes back as an error-tagged :class:`ServedDocument`
    with the pass's partial metrics, anything harsher is re-raised.
    """
    if shared_pass is not None:
        shared_pass.abort()
    if not isinstance(exc, Exception):
        raise exc
    return ServedDocument(
        index=index,
        results={},
        metrics=shared_pass.metrics if shared_pass is not None else PassMetrics(),
        outcome="error",
        error=exc,
        worker=worker,
    )


class QueryService:
    """Shared single-pass execution of many standing XQuery registrations.

    Parameters
    ----------
    dtd:
        The schema of the served documents (a :class:`DTD`, DTD source
        text, or ``None``).  All registered queries are compiled under it.
    validate:
        Whether each pass validates the document against the DTD.  The
        check runs once per pass, in the shared dispatcher, instead of once
        per query as N solo engine runs would.
    plan_cache:
        An existing :class:`PlanCache` to share (e.g. across services
        serving different schemas); by default the service owns a fresh
        cache of ``cache_size`` plans.
    execution:
        Deprecated alias kept for one release; it selects nothing.  Every
        pass round-robins re-entrant evaluations on the feeding thread
        (what ``"inline"`` used to name).  ``"inline"`` is accepted
        silently, ``"threads"`` with a :class:`DeprecationWarning`,
        anything else raises :class:`ValueError`.
    dedup:
        Whether structurally identical registrations (same
        :func:`~repro.runtime.plan_cache.structure_key`: identical
        computation up to variable renaming and whitespace, same DTD
        fingerprint and pipeline config) share one
        :class:`~repro.service.session.PlanStructure` — evaluated once per
        pass, results fanned out to every subscriber.  Structures are
        refcounted: unregistering (or replacing) one alias never tears
        down a structure another registration still uses.  ``False``
        restores one private structure per registration (the pre-dedup
        cost model), which the fleet bench uses as its baseline.
    obs:
        An optional :class:`~repro.obs.Observability` hub.  With the
        default ``None`` the service runs the pre-instrumentation code
        paths unchanged; with a hub, passes record stage latency
        histograms and counters into its metrics registry, emit spans to
        its tracer, lifecycle events (register/unregister, pass
        start/finish/abort) go to its JSON-lines logger, and its profiler
        (if any) wraps each pass driven by :meth:`run_pass`/:meth:`serve`.
    """

    def __init__(
        self,
        dtd: Union[DTD, str, None] = None,
        validate: bool = True,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = 128,
        execution: str = "inline",
        obs: Optional[Observability] = None,
        dedup: bool = True,
    ):
        if isinstance(dtd, str):
            dtd = parse_dtd(dtd)
        if execution == "threads":
            warnings.warn(
                'QueryService(execution="threads") is deprecated: the worker-thread '
                "driver is gone and every pass runs on the feeding thread",
                DeprecationWarning,
                stacklevel=2,
            )
        elif execution != "inline":
            raise ValueError(
                f"unknown execution mode {execution!r}; expected 'inline'"
            )
        self.dtd = dtd
        self.validate = validate
        self.obs = obs
        self.pipeline = OptimizerPipeline(dtd)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(cache_size)
        self.dedup = dedup
        self.metrics = ServiceMetrics()
        self._registrations: "Dict[str, RegisteredQuery]" = {}
        #: Live shared structures by structure key (``dedup=True`` only);
        #: entries leave when their last subscriber unregisters.
        self._structures: "Dict[str, PlanStructure]" = {}
        self._counter = 0
        # Weak on purpose: the service must not keep an abandoned pass
        # alive, or its finalizer (which aborts it and frees this slot)
        # could never run.
        self._active_pass_ref: Optional["weakref.ref[SharedPass]"] = None

    # ------------------------------------------------------- registration

    def _acquire_structure(self, entry: "CompiledQueryPlan") -> Optional[PlanStructure]:
        """Subscribe one new registration to its shared structure.

        Returns the live :class:`PlanStructure` for ``entry`` (creating it
        on first subscription) with its refcount already incremented, or
        ``None`` with ``dedup=False`` — the registration then builds a
        private structure of its own.
        """
        if not self.dedup:
            return None
        skey = structure_key(entry)
        structure = self._structures.get(skey)
        if structure is None:
            structure = PlanStructure(skey, entry)
            self._structures[skey] = structure
            self.metrics.structures_registered += 1
        else:
            self.metrics.queries_deduped += 1
        structure.refcount += 1
        return structure

    def _release_structure(self, registration: RegisteredQuery) -> None:
        """Drop one registration's subscription; tear down at refcount 0."""
        structure = registration.structure
        structure.refcount -= 1
        if (
            structure.refcount == 0
            and self._structures.get(structure.skey) is structure
        ):
            del self._structures[structure.skey]
            self.metrics.structures_released += 1

    @property
    def structures(self) -> "Dict[str, PlanStructure]":
        """Live shared structures by key (read-only view by convention)."""
        return dict(self._structures)

    def register(self, query: str, key: Optional[str] = None) -> RegisteredQuery:
        """Register a standing query, compiling it through the plan cache.

        ``key`` names the registration (and its results); by default keys
        are ``q1``, ``q2``, ...  Re-registering an existing key replaces
        that query: the displaced registration is counted in
        ``metrics.queries_replaced``, keeping the live-query invariant
        ``queries_registered - queries_unregistered - queries_replaced ==
        len(service)``.  An already-open pass is unaffected — it holds a
        snapshot of the registrations taken when it was opened.
        """
        if key is None:
            self._counter += 1
            key = f"q{self._counter}"
        entry, from_cache = self.plan_cache.get_or_compile(query, self.pipeline)
        registration = RegisteredQuery(
            key,
            entry,
            from_cache=from_cache,
            structure=self._acquire_structure(entry),
            # Echo what this registrant submitted: under plan-cache
            # interning, entry.source may be an alias's spelling.
            source=query,
        )
        displaced = self._registrations.get(key)
        if displaced is not None:
            self.metrics.queries_replaced += 1
            self._release_structure(displaced)
        self._registrations[key] = registration
        self.metrics.queries_registered += 1
        if self.obs is not None:
            self.obs.log("service.register", key=key, from_cache=from_cache)
        return registration

    def register_compiled(
        self,
        entry: "CompiledQueryPlan",
        key: Optional[str] = None,
        source: Optional[str] = None,
    ) -> RegisteredQuery:
        """Register an *already compiled* plan — no cache, no optimizer.

        The receiving half of plan shipping: a
        :class:`~repro.service.process_pool.ProcessServicePool` worker
        reconstructs plans from the artifacts the parent shipped and
        registers them here, so the worker process never parses or
        optimizes a query.  The plan must have been compiled under this
        service's schema — a fingerprint mismatch raises ``ValueError``,
        because a plan bakes its DTD's constraints into scheduling and
        buffering and is *wrong* (not merely suboptimal) under another
        schema.  Also usable anywhere else a compiled plan is already in
        hand (e.g. registering a plan pulled from a warm-started cache).
        """
        fingerprint = dtd_fingerprint(self.dtd)
        entry_fingerprint = dtd_fingerprint(entry.dtd)
        if entry_fingerprint != fingerprint:
            raise ValueError(
                f"compiled plan was built under DTD {entry_fingerprint[:12]}..., "
                f"but this service serves DTD {fingerprint[:12]}..."
            )
        if key is None:
            self._counter += 1
            key = f"q{self._counter}"
        registration = RegisteredQuery(
            key,
            entry,
            from_cache=True,
            structure=self._acquire_structure(entry),
            # A shipped alias carries its registrant's own spelling; the
            # artifact's entry may hold the structure's canonical text.
            source=source,
        )
        displaced = self._registrations.get(key)
        if displaced is not None:
            self.metrics.queries_replaced += 1
            self._release_structure(displaced)
        self._registrations[key] = registration
        self.metrics.queries_registered += 1
        if self.obs is not None:
            self.obs.log("service.register", key=key, shipped=True)
        return registration

    def register_all(self, queries: Iterable[str]) -> List[RegisteredQuery]:
        """Register several queries at once (autogenerated keys)."""
        return [self.register(query) for query in queries]

    def unregister(self, key: str) -> None:
        """Remove a standing query; unknown keys raise ``KeyError``.

        Releases the registration's subscription on its shared structure —
        the structure itself survives while other aliases still hold it.
        """
        registration = self._registrations.pop(key)
        self.metrics.queries_unregistered += 1
        self._release_structure(registration)
        if self.obs is not None:
            self.obs.log("service.unregister", key=key)

    @property
    def registrations(self) -> "Dict[str, RegisteredQuery]":
        """The current registrations, by key (read-only view by convention)."""
        return dict(self._registrations)

    def __len__(self) -> int:
        return len(self._registrations)

    # ---------------------------------------------------------- execution

    @property
    def active_pass(self) -> Optional[SharedPass]:
        """The pass currently in flight, or ``None``.

        The service serves one shared pass at a time: while this is not
        ``None``, :meth:`open_pass` (and therefore :meth:`run_pass` and
        :meth:`serve`) raises :class:`~repro.errors.PassInProgressError`.
        The slot frees itself when the pass finishes or aborts (including
        via its context manager or finalizer), or when an abandoned pass is
        garbage collected.
        """
        if self._active_pass_ref is None:
            return None
        shared_pass = self._active_pass_ref()
        if shared_pass is None:
            self._active_pass_ref = None
        return shared_pass

    def _pass_closed(self, shared_pass: SharedPass) -> None:
        # Callback from the pass's first finish/abort; a pass that failed
        # mid-construction closes too, before it ever occupied the slot.
        if self._active_pass_ref is not None:
            current = self._active_pass_ref()
            if current is shared_pass or current is None:
                self._active_pass_ref = None

    def open_pass(self, chunk_size: int = 256, trace_id: Optional[str] = None) -> SharedPass:
        """Open a push-based shared pass over one document.

        Feed document text with :meth:`SharedPass.feed` as it arrives and
        call :meth:`SharedPass.finish` for the per-query results.  A
        finished pass folds itself into :attr:`metrics`, however it was
        driven.  The pass executes a *snapshot* of the current
        registrations: queries registered, replaced, or unregistered while
        the pass is open do not affect it.

        One pass at a time: opening a second pass while :attr:`active_pass`
        is still in flight raises
        :class:`~repro.errors.PassInProgressError` — finish or abort the
        active pass first.  (The pass owns shared mutable state — parser
        position, per-query sessions — so overlapping passes on one service
        cannot be made safe; open a second service sharing the
        :attr:`plan_cache` to scan two documents concurrently.)
        """
        if self.active_pass is not None:
            raise PassInProgressError(
                "a shared pass is already in flight on this service; "
                "finish() or abort() it before opening another"
            )
        shared_pass = SharedPass(
            list(self._registrations.values()),
            self.dtd,
            self.validate,
            chunk_size=chunk_size,
            on_complete=self.metrics.record_pass,
            on_close=self._pass_closed,
            obs=self.obs,
            trace_id=trace_id,
        )
        self._active_pass_ref = weakref.ref(shared_pass)
        return shared_pass

    def serve_document(
        self,
        document: Union[str, io.TextIOBase, DocumentSource],
        index: int = 0,
        chunk_size: int = 256,
        trace_id: Optional[str] = None,
        worker: Optional[int] = None,
    ) -> ServedDocument:
        """The document step: one shared pass over one document.

        Materializes a :class:`DocumentSource` (closing what it opened),
        opens a pass over the current registrations, feeds ``document``
        (XML text, or a file-like object read incrementally), finishes,
        and folds the pass into the plan cache's observation sidecar.  An
        ``Exception`` anywhere in there aborts the pass and comes back as
        ``outcome == "error"`` with the pass's partial metrics; anything
        harsher (``KeyboardInterrupt``, ...) aborts and propagates.

        Every synchronous serving face is this call: :meth:`run_pass` and
        :meth:`serve` re-raise the tagged error, the thread pool's workers
        and the process pool's worker processes deliver it.  ``index``,
        ``worker`` and ``trace_id`` are the caller's tags, passed through.
        """
        shared_pass = None
        try:
            with self._maybe_profile(), materialized(document) as opened:
                shared_pass = self.open_pass(chunk_size=chunk_size, trace_id=trace_id)
                if isinstance(opened, str):
                    shared_pass.feed(opened)
                else:
                    for chunk in iter(lambda: opened.read(_READ_CHUNK), ""):
                        shared_pass.feed(chunk)
                results = shared_pass.finish()
            return finished_document(
                self.plan_cache, shared_pass, results, index, worker
            )
        except BaseException as exc:
            return failed_document(shared_pass, exc, index, worker)

    def run_pass(
        self, document: Union[str, io.TextIOBase, DocumentSource]
    ) -> Dict[str, QueryResult]:
        """Run all registered queries over ``document`` in one shared scan.

        Returns ``{registration key: QueryResult}``; each result is
        byte-identical to a solo ``FluxEngine.execute`` of that query.  A
        failing document aborts the pass and raises the original error.
        """
        served = self.serve_document(document)
        if served.error is not None:
            raise served.error
        return served.results

    def _maybe_profile(self):
        """The pass profiler as a context manager, or a no-op without one."""
        if self.obs is not None and self.obs.profiler is not None:
            return self.obs.profiler
        return contextlib.nullcontext()

    def serve(
        self,
        documents: Iterable[Union[str, io.TextIOBase, DocumentSource]],
        chunk_size: int = 256,
    ) -> Iterator[ServedDocument]:
        """Serve a stream of documents: one shared pass per document.

        The long-lived serving loop.  ``documents`` is any iterable of XML
        texts, file-like objects or :class:`DocumentSource` recipes; each
        one is a :meth:`serve_document` step over the *current*
        registrations (fresh per-query runtimes per document; compiled
        plans are reused from the registrations), yielded as a
        :class:`ServedDocument`.  Because this
        is a generator, callers may register, unregister, or replace
        queries between ``next()`` steps — the next document picks up the
        changed registrations, while per-pass metrics and the cumulative
        :attr:`metrics` stay consistent:

        >>> loop = service.serve(documents)            # doctest: +SKIP
        >>> first = next(loop)                         # doctest: +SKIP
        >>> service.register(new_query, key="extra")   # doctest: +SKIP
        >>> second = next(loop)                        # includes "extra"

        Serving an empty service raises ``ValueError`` — checked *before*
        the next document is pulled from the iterator, so the offending
        document is not silently consumed: a caller that catches the error,
        registers a query, and re-``serve``s the same iterator resumes at
        exactly the document that tripped it.  (The check runs at every
        step, so a service emptied mid-loop fails at the next step even if
        the stream happens to be exhausted.)  A document that fails
        mid-pass aborts that pass (releasing its slot and sessions) and
        propagates the error; the generator is then exhausted — decide in
        the caller whether to re-``serve`` the remaining documents, or use
        a :class:`~repro.service.pool.ServicePool`, whose serving loop
        isolates the failure instead.  Single-driver like everything on the
        service: drive the generator from one thread.
        """
        iterator = iter(documents)
        index = 0
        while True:
            if not self._registrations:
                raise ValueError(
                    f"serve(): no queries registered when document {index} arrived"
                )
            try:
                document = next(iterator)
            except StopIteration:
                return
            served = self.serve_document(document, index, chunk_size)
            if served.error is not None:
                raise served.error
            yield served
            index += 1

    # ----------------------------------------------------------- reporting

    def stats_summary(self) -> Dict[str, object]:
        """Service metrics plus plan-cache counters, for logs and benches."""
        summary = self.metrics.as_dict()
        summary["plan_cache"] = self.plan_cache.stats.as_dict()
        summary["plan_cache"]["size"] = len(self.plan_cache)
        return summary
