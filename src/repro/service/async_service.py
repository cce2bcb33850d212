"""Asyncio ingestion front end over the shared pass.

The streamed evaluator is a set of re-entrant generators: a per-query
runtime *suspends* when its input starves and is resumed on the feeding
thread.  That makes a coroutine driver mechanical — there is no thread to
hand events to, so ``await``-ing between feeds is all the cooperation an
event loop needs.  :class:`AsyncQueryService` packages that:

* it owns a :class:`~repro.service.service.QueryService`;
* :meth:`AsyncQueryService.open_pass` returns an :class:`AsyncSharedPass`
  whose ``await feed(chunk)`` parses, routes, and round-robins the
  suspended evaluations synchronously — the work is CPU-bound and brief per
  chunk — then yields control to the event loop, so a server can interleave
  many connections' chunks with query evaluation on one thread;
* :meth:`AsyncQueryService.serve_document` is the one coloured twin of
  :meth:`QueryService.serve_document
  <repro.service.service.QueryService.serve_document>` — the same document
  step, but it must ``await`` between chunks and it accepts async chunk
  iterables; ``run_pass``, ``serve`` and the asyncio pool's workers all
  call it;
* :meth:`AsyncQueryService.serve` is the async serving loop: one step per
  document, documents from a plain iterable *or* an async iterable (e.g. a
  queue of uploads), with registration changes allowed between passes.

Concurrency contract: this is cooperative single-threaded concurrency, not
parallelism.  One event loop drives the service; like the sync service it
serves one shared pass at a time (``open_pass`` raises
:class:`~repro.errors.PassInProgressError` while one is in flight), and a
pass must be fed from one coroutine.  The plan cache underneath remains
fully thread-safe and may be shared with sync services and engines.
"""

from __future__ import annotations

import asyncio
import io
from typing import AsyncIterator, Dict, Iterable, List, Optional, Union

from repro.dtd.schema import DTD
from repro.engines.base import QueryResult
from repro.obs import Observability
from repro.runtime.plan_cache import PlanCache
from repro.service.metrics import MetricsPublisher, PassMetrics, ServiceMetrics
from repro.service.service import (
    QueryService,
    ServedDocument,
    _READ_CHUNK,
    failed_document,
    materialized,
)
from repro.service.session import RegisteredQuery, SharedPass


class AsyncSharedPass:
    """One shared pass driven from a coroutine.

    An async wrapper over :class:`~repro.service.session.SharedPass`.
    ``await feed(text)``
    advances parsing, routing, and every suspended per-query evaluation on
    the current thread, then cedes the event loop; ``await finish()``
    closes the input and returns ``{key: QueryResult}``.  Lifecycle mirrors
    the sync pass: single feeder coroutine, idempotent ``finish``, ``abort``
    (sync — it only tears down suspended generators) usable from anywhere,
    and ``async with`` finishing on clean exit / aborting on exception.
    """

    def __init__(self, shared_pass: SharedPass):
        self._pass = shared_pass

    @property
    def metrics(self) -> PassMetrics:
        return self._pass.metrics

    @property
    def aborted(self) -> bool:
        return self._pass.aborted

    async def feed(self, text: str) -> None:
        """Ingest the next chunk, then yield control to the event loop.

        The chunk's full pipeline (incremental parse, shared validation,
        routing, resuming each starved evaluation) runs synchronously on
        the loop's thread — keep chunks reasonably sized to bound the time
        between ``await`` points.  Errors (malformed/invalid input,
        evaluation failures) abort the pass and surface here.
        """
        self._pass.feed(text)
        await asyncio.sleep(0)

    async def finish(self) -> Dict[str, QueryResult]:
        """Close the input and return one result per registered query."""
        results = self._pass.finish()
        await asyncio.sleep(0)
        return results

    def abort(self) -> None:
        """Tear down the pass, discarding partial output (idempotent)."""
        self._pass.abort()

    async def __aenter__(self) -> "AsyncSharedPass":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None or self._pass.aborted:
            self._pass.abort()
        else:
            await self.finish()


async def _iter_documents(documents) -> AsyncIterator[Union[str, io.TextIOBase]]:
    """Yield from a plain iterable or an async iterable of documents."""
    if hasattr(documents, "__aiter__"):
        async for document in documents:
            yield document
    else:
        for document in documents:
            yield document


class AsyncQueryService(MetricsPublisher):
    """The multi-query service behind an asyncio-native API.

    Construction mirrors :class:`~repro.service.service.QueryService`
    (schema, validation flag, shareable plan cache): one OS thread — the
    event loop's — interleaves ingestion and N query evaluations without
    blocking.

    Registration (:meth:`register` / :meth:`unregister`) is synchronous and
    inherited unchanged: compilation happens at registration time, off the
    serving path (await-free on purpose — a slow optimizer run is a startup
    cost, not a serving stall; share a pre-warmed plan cache to avoid it
    entirely).  All methods must be called from the event loop's thread.
    """

    def __init__(
        self,
        dtd: Union[DTD, str, None] = None,
        validate: bool = True,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = 128,
        obs: Optional[Observability] = None,
        dedup: bool = True,
    ):
        self._service = QueryService(
            dtd,
            validate=validate,
            plan_cache=plan_cache,
            cache_size=cache_size,
            obs=obs,
            dedup=dedup,
        )

    # ------------------------------------------------------- registration

    def register(self, query: str, key: Optional[str] = None) -> RegisteredQuery:
        """Register a standing query (see :meth:`QueryService.register`)."""
        return self._service.register(query, key=key)

    def register_all(self, queries: Iterable[str]) -> List[RegisteredQuery]:
        """Register several queries at once (autogenerated keys)."""
        return self._service.register_all(queries)

    def unregister(self, key: str) -> None:
        """Remove a standing query; unknown keys raise ``KeyError``."""
        self._service.unregister(key)

    @property
    def registrations(self) -> Dict[str, RegisteredQuery]:
        return self._service.registrations

    def __len__(self) -> int:
        return len(self._service)

    # ----------------------------------------------------------- plumbing

    @property
    def service(self) -> QueryService:
        """The wrapped synchronous service (shared metrics and cache)."""
        return self._service

    @property
    def metrics(self) -> ServiceMetrics:
        return self._service.metrics

    @property
    def plan_cache(self) -> PlanCache:
        return self._service.plan_cache

    # ---------------------------------------------------------- execution

    def open_pass(
        self, chunk_size: int = 256, trace_id: Optional[str] = None
    ) -> AsyncSharedPass:
        """Open a coroutine-driven shared pass over one document.

        One pass at a time, like the sync service: raises
        :class:`~repro.errors.PassInProgressError` while a pass is in
        flight.  (Synchronous on purpose: opening a pass only snapshots
        registrations and builds suspended generators — nothing blocks.)
        """
        return AsyncSharedPass(
            self._service.open_pass(chunk_size=chunk_size, trace_id=trace_id)
        )

    async def serve_document(
        self,
        document,
        index: int = 0,
        chunk_size: int = 256,
        trace_id: Optional[str] = None,
        worker: Optional[int] = None,
    ) -> ServedDocument:
        """The document step, awaited: :meth:`QueryService.serve_document`
        with an ``await`` point per fed chunk.

        ``document`` is XML text, a (synchronous) file-like object — reads
        are chunked, with an ``await`` point per chunk — a
        :class:`~repro.service.service.DocumentSource` recipe, or an *async
        iterable of text chunks* (e.g. a connection yielding a document as
        it arrives), awaited chunk by chunk so slow delivery never blocks
        the event loop.  Same outcome contract as the sync step: an
        ``Exception`` aborts the pass and comes back error-tagged, anything
        harsher — task cancellation included — aborts and propagates.
        """
        shared_pass = None
        try:
            with materialized(document) as opened:
                shared_pass = self.open_pass(chunk_size=chunk_size, trace_id=trace_id)
                if isinstance(opened, str):
                    await shared_pass.feed(opened)
                elif hasattr(opened, "__aiter__"):
                    async for chunk in opened:
                        await shared_pass.feed(chunk)
                else:
                    while True:
                        # The cooperative-CPU compromise the module docstring
                        # documents: a bounded local read (and, for a recipe,
                        # a local open); async chunk sources are the
                        # non-blocking alternative for slow delivery.
                        chunk = opened.read(_READ_CHUNK)
                        if not chunk:
                            break
                        await shared_pass.feed(chunk)
                results = await shared_pass.finish()
            return ServedDocument(
                index=index, results=results, metrics=shared_pass.metrics, worker=worker
            )
        except BaseException as exc:
            return failed_document(shared_pass, exc, index, worker)

    async def run_pass(self, document) -> Dict[str, QueryResult]:
        """Run all registered queries over one document in one shared scan
        (any document form :meth:`serve_document` takes); a failing
        document aborts the pass and raises the original error."""
        served = await self.serve_document(document)
        if served.error is not None:
            raise served.error
        return served.results

    async def serve(
        self,
        documents,
        chunk_size: int = 256,
    ) -> AsyncIterator[ServedDocument]:
        """Async serving loop: one :meth:`serve_document` step per document.

        ``documents`` is a plain or *async* iterable of documents.
        Semantics match
        :meth:`QueryService.serve` — per-document registration snapshots,
        churn allowed between passes, ``ValueError`` on an empty service
        (checked *before* the next document is pulled, so catching it,
        registering, and re-serving the same source resumes at the document
        that tripped it), abort-and-propagate on a failing document — with
        an ``await`` point at least once per fed chunk:

        >>> async for served in service.serve(queue):   # doctest: +SKIP
        ...     handle(served.results)
        """
        iterator = _iter_documents(documents)
        index = 0
        while True:
            if not len(self._service):
                raise ValueError(
                    f"serve(): no queries registered when document {index} arrived"
                )
            try:
                document = await iterator.__anext__()
            except StopAsyncIteration:
                return
            served = await self.serve_document(document, index, chunk_size)
            if served.error is not None:
                raise served.error
            yield served
            index += 1
