"""Registrations and shared-pass sessions of the multi-query service.

A :class:`RegisteredQuery` is one standing query: its source text, its
cached compilation, and the :class:`PlanStructure` it subscribes to — the
distinct computation it shares with every structurally identical
registration (same :func:`~repro.runtime.plan_cache.structure_key`).  A
:class:`SharedPass` is one push-based scan of one document executing all
registered queries: the service's incremental parser turns text chunks
into events, the shared dispatcher filters them once, and each *structure*
(not each registration) runs one
:class:`~repro.runtime.evaluator.EvaluatorSession` consuming the fan-out,
re-entered on the feeding thread once per routed chunk.  ``finish()``
drains everything and returns one
:class:`~repro.engines.base.QueryResult` per registration — aliases of one
structure receive the same evaluated output — byte-identical to a solo
``FluxEngine.execute`` of the same query over the same document.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.dtd.schema import DTD
from repro.dtd.validator import StreamingValidator
from repro.engines.base import QueryResult
from repro.obs import Observability, new_span_id, new_trace_id
from repro.runtime.compiler import CompiledQueryPlan
from repro.runtime.evaluator import EvaluatorSession
from repro.runtime.plan_cache import structure_key
from repro.service.dispatcher import PlanProfile, SharedDispatcher, SharedProjectionIndex
from repro.service.metrics import PASS_STAGES, PassMetrics, record_pass_durations
from repro.xmlstream.parser import SkipTrie, StreamingXMLParser

#: Engine label stamped on results produced by a shared pass.
SHARED_ENGINE_NAME = "flux-shared"


class PlanStructure:
    """One distinct computation shared by structurally identical registrations.

    Identified by its :func:`~repro.runtime.plan_cache.structure_key`: every
    registration whose query is the same computation (identical parsed-AST
    and plan trees up to variable renaming, same DTD fingerprint and
    pipeline config) subscribes to one ``PlanStructure``, and a shared pass
    evaluates each structure exactly once.  The service refcounts
    subscribers so dropping one alias never tears down a structure another
    registration still needs; ``refcount`` mutates only under the service's
    single-driver contract (between passes).
    """

    def __init__(self, skey: str, entry: CompiledQueryPlan):
        self.skey = skey
        self.entry = entry
        self.profile = PlanProfile(entry)
        #: Live registrations subscribed to this structure.
        self.refcount = 0
        #: Shared passes that evaluated this structure.
        self.passes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanStructure({self.skey[:12]!r}, refcount={self.refcount})"


class RegisteredQuery:
    """One standing query registered with a :class:`QueryService`.

    Lifecycle: created by ``register()``, lives until unregistered or
    replaced, and is *shared* by every pass that snapshots it — the compiled
    plan and the :class:`PlanStructure` it subscribes to are immutable, so
    reuse across passes is free.  Only ``passes`` mutates (incremented by
    each finishing pass), under the service's single-driver contract.

    ``source`` is the text *as registered* — under plan-cache interning the
    shared ``entry`` may carry an alias's differently-spelled (but
    structurally identical) text, and results must echo what this
    registrant submitted.  A registration constructed without an explicit
    ``structure`` gets a private one (no cross-registration sharing), which
    is exactly the service's ``dedup=False`` behavior.
    """

    def __init__(
        self,
        key: str,
        entry: CompiledQueryPlan,
        from_cache: bool,
        structure: Optional[PlanStructure] = None,
        source: Optional[str] = None,
    ):
        self.key = key
        self.entry = entry
        #: Whether registration was served from the plan cache.
        self.from_cache = from_cache
        if structure is None:
            # Private structure: no cross-registration sharing, but the
            # same refcount discipline (this registration is its one
            # subscriber) so release paths need no special case.
            structure = PlanStructure(structure_key(entry), entry)
            structure.refcount = 1
        self.structure = structure
        self.source = source if source is not None else entry.source
        self.passes = 0

    @property
    def profile(self) -> PlanProfile:
        return self.structure.profile

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisteredQuery({self.key!r}, cached={self.from_cache})"


class _StructureRun:
    """One structure's execution inside one shared pass.

    Evaluates the structure's plan once and fans the finished output out to
    every subscribing registration in the pass (:meth:`results`), so N
    aliases of one computation cost one evaluator session, not N.
    """

    def __init__(self, group: List[RegisteredQuery], dtd: Optional[DTD]):
        self.group = group
        self.structure = group[0].structure
        # Validation runs once, in the dispatcher, over the unfiltered
        # stream; the per-structure XSAX readers only track on-first
        # conditions.
        self.session = EvaluatorSession(
            self.structure.entry.plan, dtd, validate=False
        ).start()

    def feed(self, chunk) -> None:
        self.session.feed(chunk)

    def results(self) -> List[QueryResult]:
        """Finish the session and build one result per subscriber.

        The evaluated output string is shared by reference across the
        group's results (it is immutable); each result still echoes its own
        registration's source text.
        """
        output, stats = self.session.finish()
        return [
            QueryResult(
                output=output,
                stats=stats,
                engine=SHARED_ENGINE_NAME,
                query=reg.source,
            )
            for reg in self.group
        ]


class SharedPass:
    """One shared single-pass execution of all registered queries.

    Documents are pushed as text with :meth:`feed` (any chunking) and closed
    with :meth:`finish`, which returns ``{key: QueryResult}``.  The
    dispatcher round-robins the per-structure evaluations on the feeding
    thread; the pass starts no thread of its own.

    A failing pass (malformed or invalid input) aborts every per-structure
    session before re-raising; an aborted pass rejects further
    :meth:`feed`/:meth:`finish` calls with :class:`ValueError` rather than
    touching its dead sessions.  The pass is also a context manager —
    leaving the ``with`` block finishes it (or aborts it on an exception; a
    block left after a manual :meth:`abort` stays aborted) — and a pass
    dropped without either call is aborted by its finalizer, so an
    abandoned pass cannot keep the service's one-pass slot.

    Lifecycle: ``open → (feed)* → finish`` or ``open → (feed)* → abort``;
    ``finish`` is idempotent (later calls return the same results) and a
    finished or aborted pass is *closed* — it releases its slot on the
    owning :class:`~repro.service.service.QueryService`, which serves one
    pass at a time.  Thread-safety: a pass is single-driver — all ``feed``/
    ``finish`` calls must come from one thread (or one coroutine); only
    ``abort`` may be called from elsewhere, at any moment: it never raises,
    releases the slot exactly once, and a ``feed``/``finish`` it interrupts
    raises the same ``ValueError("… on an aborted pass")`` the next call
    would (a session whose generator is mid-resume is closed by the feeding
    thread when that hand-off returns).
    """

    def __init__(
        self,
        registrations: List[RegisteredQuery],
        dtd: Optional[DTD],
        validate: bool,
        chunk_size: int = 256,
        on_complete=None,
        on_close=None,
        obs: Optional[Observability] = None,
        trace_id: Optional[str] = None,
        skip_tries: Optional[Dict[tuple, Optional[SkipTrie]]] = None,
    ):
        if not registrations:
            raise ValueError("a shared pass needs at least one registered query")
        self._registrations = list(registrations)
        self._metrics = PassMetrics(queries=len(self._registrations))
        # abort() is the one cross-thread entry point (a pool driver may
        # abort a pass its worker is feeding), so the aborted/closed
        # transitions are real test-and-sets: without the lock two racing
        # abort() calls could both log pass.abort, and a finalizer racing
        # finish() could release the service's active-pass slot twice.
        # Both flags are written only under the lock.  ``_aborted`` is
        # monotonic and read without it by the one driving thread: an abort
        # racing a read lands on the next call, or inside ``_driving``.
        self._state_lock = threading.Lock()
        self._aborted = False
        self._closed = False
        self._on_close = on_close
        self._obs = obs
        self.trace_id = (
            (trace_id or new_trace_id())
            if obs is not None and obs.tracer is not None
            else trace_id
        )
        #: Span id of this pass's span — stage spans and pool spans parent
        #: to it.  Minted eagerly; the span itself is emitted at finish.
        self.span_id = new_span_id() if self.trace_id is not None else None
        self._start_wall = time.time()
        if obs is not None:
            obs.log(
                "pass.start",
                trace_id=self.trace_id,
                queries=len(self._registrations),
            )
        self._results: Optional[Dict[str, QueryResult]] = None
        self._runs: List[_StructureRun] = []
        # Group registrations by structure identity (aliases of one
        # computation share a PlanStructure object): one evaluator run and
        # one routing-index group per structure, insertion-ordered so
        # results and fan-out stay deterministic.
        groups: Dict[int, List[RegisteredQuery]] = {}
        for reg in self._registrations:
            groups.setdefault(id(reg.structure), []).append(reg)
        grouped = list(groups.values())
        self._metrics.structures = len(grouped)
        try:
            for group in grouped:
                self._runs.append(_StructureRun(group, dtd))
            profiles = tuple(run.structure.profile for run in self._runs)
            self._index = SharedProjectionIndex(
                profiles,
                self._metrics,
                keys=[[reg.key for reg in run.group] for run in self._runs],
            )
            validator = StreamingValidator(dtd) if (validate and dtd is not None) else None
            self._dispatcher = SharedDispatcher(
                self._index, self._runs, validator=validator, chunk_size=chunk_size
            )
            # The parser skips the subtrees no group reads; the trie is
            # memoized per registration set in ``skip_tries``.
            if skip_tries is None:
                skip_tries = {}
            if profiles not in skip_tries:
                skip_tries.clear()
                skip_tries[profiles] = self._index.skip_trie()
            self._parser = StreamingXMLParser.incremental(skip=skip_tries[profiles])
        except BaseException:
            # Construction failed after the Kth session started: close the
            # generators that did start and free the service's slot.
            self.abort()
            raise
        self._on_complete = on_complete
        self._started_at = time.perf_counter()

    @property
    def metrics(self) -> PassMetrics:
        return self._metrics

    @property
    def aborted(self) -> bool:
        return self._aborted

    @contextmanager
    def _driving(self, call: str):
        """Guard one ``feed``/``finish`` step: any failure aborts the pass.

        An :meth:`abort` from another thread may land while the step runs;
        the sessions then fail the step in whatever way they notice first
        (or not at all, if it touched none of them).  Either way the caller
        sees the ``ValueError`` the next call would raise.
        """
        try:
            yield
        except BaseException as exc:
            aborted_elsewhere = self._aborted  # read before this thread's own abort() sets it
            self.abort()
            if aborted_elsewhere and isinstance(exc, Exception):
                raise ValueError(f"{call}() on an aborted pass") from exc
            raise
        if self._aborted:
            raise ValueError(f"{call}() on an aborted pass")

    def _dispatch_parsed(self, parse, *args) -> None:
        """Run one parser call and dispatch its events, timing the parse."""
        started = time.perf_counter()
        events = parse(*args)
        self._metrics.stage_seconds["parse"] += time.perf_counter() - started
        self._dispatcher.dispatch(events)

    def feed(self, text: str) -> None:
        """Push the next chunk of document text into the pass."""
        if self._aborted:
            raise ValueError("feed() on an aborted pass")
        if self._results is not None:
            raise ValueError("feed() after finish()")
        # len(text) counts characters; the reported metric is bytes.
        self._metrics.document_bytes += len(text.encode("utf-8"))
        with self._driving("feed"):
            self._dispatch_parsed(self._parser.feed, text)

    def finish(self) -> Dict[str, QueryResult]:
        """Close the input and return one result per registered query."""
        if self._aborted:
            raise ValueError("finish() on an aborted pass")
        if self._results is None:
            results: Dict[str, QueryResult] = {}
            with self._driving("finish"):
                self._dispatch_parsed(self._parser.close)
                self._dispatcher.flush()
                emit_started = time.perf_counter()
                for run in self._runs:
                    for reg, result in zip(run.group, run.results()):
                        results[reg.key] = result
                        reg.passes += 1
                    run.structure.passes += 1
                finished = time.perf_counter()
            self._metrics.stage_seconds["emit"] += finished - emit_started
            self._metrics.elapsed_seconds = finished - self._started_at
            self._index.finalize_metrics()
            self._results = results
            if self._on_complete is not None:
                self._on_complete(self._metrics, len(results))
            self._observe_finish(len(results))
            self._close()
        return self._results

    def _observe_finish(self, results: int) -> None:
        """Emit the finished pass's metrics, spans, and log event."""
        obs = self._obs
        if obs is None:
            return
        record_pass_durations(obs, self._metrics)
        stage_seconds = self._metrics.stage_seconds
        if obs.tracer is not None and self.trace_id is not None:
            for stage in PASS_STAGES:
                obs.tracer.record(
                    f"pass.{stage}",
                    self.trace_id,
                    stage_seconds[stage],
                    parent_id=self.span_id,
                )
            obs.tracer.record(
                "pass",
                self.trace_id,
                self._metrics.elapsed_seconds,
                span_id=self.span_id,
                start=self._start_wall,
                queries=self._metrics.queries,
                parser_events=self._metrics.parser_events,
            )
        obs.log(
            "pass.finish",
            trace_id=self.trace_id,
            results=results,
            parser_events=self._metrics.parser_events,
            elapsed_seconds=self._metrics.elapsed_seconds,
        )

    def abort(self) -> None:
        """Tear down all per-structure sessions, discarding partial output.

        Idempotent, callable from any state (including mid-construction)
        and from any thread; the first call releases the pass's slot on
        the owning service.  Never raises: a session whose generator is
        executing on the feeding thread is only flagged, and that thread
        closes it when the hand-off returns.
        """
        with self._state_lock:
            first = not self._aborted
            self._aborted = True
        for run in self._runs:
            run.session.abort()
        if first and self._results is None and self._obs is not None:
            try:
                self._obs.log("pass.abort", trace_id=self.trace_id)
            except Exception:  # never let logging break teardown
                pass
        self._close()

    def _close(self) -> None:
        """Release the service's active-pass slot, exactly once."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        # The callback runs outside the lock: it re-enters the service
        # (slot release) and must not nest under pass state.
        if self._on_close is not None:
            self._on_close(self)

    def __enter__(self) -> "SharedPass":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None or self._aborted:
            self.abort()
        else:
            self.finish()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            if self._results is None:
                self.abort()
        except Exception:
            pass
