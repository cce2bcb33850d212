"""The service pool contract, checked on every backend.

Thread, asyncio and process pools run one sharding loop
(``PoolCore.serve``) and one document step
(``QueryService.serve_document``) over three transports, so one suite
checks all three: documents sharded across N workers produce, for every
(document, query) pair, output byte-identical to a fresh solo
``FluxEngine.execute`` — including every *other* document when one
document fails, which must surface as an error-tagged ``ServedDocument``
(not exhaust the loop), release the failing worker's pass slot, and leave
the pool serving — and the loop's guards hold however it is driven.

What only one transport can do (plan shipping, worker crashes and respawn:
``tests/test_service_process_pool.py``; in-process mirrors and async chunk
feeds: the last classes here) stays with that transport.
"""

import asyncio
import threading
import time

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.errors import XMLSyntaxError
from repro.runtime.plan_cache import PlanCache
from repro.service import (
    AsyncQueryService,
    AsyncServicePool,
    FileDocument,
    PoolMetrics,
    ProcessServicePool,
    QueryService,
    ServedDocument,
    ServicePool,
)
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import get_query

TITLES_QUERY = "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"

#: Malformed mid-stream: opens a book that never closes.
BAD_DOCUMENT = "<bib><book>"

POOLS = {
    "threads": ServicePool,
    "async": AsyncServicePool,
    "processes": ProcessServicePool,
}


@pytest.fixture(scope="module")
def documents():
    return [
        generate_bibliography(num_books=books, seed=seed)
        for books, seed in [(8, 1), (13, 2), (21, 3), (5, 4), (11, 5), (7, 6)]
    ]


def solo(query: str, document: str) -> str:
    return FluxEngine(BIB_DTD_STRONG).execute(query, document).output


class _SyncFace:
    """An async serve loop driven step by step on a private event loop."""

    def __init__(self, agen, loop):
        self._agen = agen
        self._loop = loop

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return self._loop.run_until_complete(self._agen.__anext__())
        except StopAsyncIteration:
            raise StopIteration from None

    def close(self):
        self._loop.run_until_complete(self._agen.aclose())


class Harness:
    """One pool of the backend under test, behind a synchronous face."""

    def __init__(self, backend, workers):
        self.backend = backend
        self.pool = POOLS[backend](BIB_DTD_STRONG, workers=workers)
        self._loop = asyncio.new_event_loop() if backend == "async" else None

    def serve(self, documents):
        loop = self.pool.serve(documents)
        return loop if self._loop is None else _SyncFace(loop, self._loop)

    def close(self):
        if self._loop is not None:
            self._loop.close()
        if self.backend == "processes":
            self.pool.close()


@pytest.fixture(params=sorted(POOLS))
def make_pool(request):
    """``make_pool(workers)`` → a :class:`Harness`, closed after the test."""
    made = []

    def make(workers=2):
        made.append(Harness(request.param, workers))
        return made[-1]

    yield make
    for harness in made:
        harness.close()


class TestServing:
    def test_sharded_serve_matches_solo_per_document(self, make_pool, documents):
        q1 = get_query("BIB-Q1").xquery
        harness = make_pool(3)
        harness.pool.register(q1, key="q1")
        harness.pool.register(TITLES_QUERY, key="t")
        served = list(harness.serve(documents))
        # Every document exactly once, tagged with a worker, completion order.
        assert sorted(outcome.index for outcome in served) == list(
            range(len(documents))
        )
        for outcome in served:
            assert isinstance(outcome, ServedDocument)
            assert outcome.ok and outcome.error is None
            assert outcome.worker in range(3)
            document = documents[outcome.index]
            assert outcome.results["q1"].output == solo(q1, document)
            assert outcome.results["t"].output == solo(TITLES_QUERY, document)

    def test_lazy_source_is_pulled_on_demand(self, make_pool, documents):
        # Backpressure: a document is pulled only for an idle worker, so a
        # stalled consumer caps the shard at (in flight) + (taken)
        # documents, however long the stream.
        pulled = []

        def source():
            for document in documents:
                pulled.append(document)
                yield document

        workers = 2
        harness = make_pool(workers)
        harness.pool.register(TITLES_QUERY, key="t")
        loop = harness.serve(source())
        next(loop)
        time.sleep(0.3)  # give the workers every chance to run ahead
        assert len(pulled) <= workers + 1 < len(documents)
        next(loop)
        assert len(pulled) <= workers + 2
        loop.close()

    def test_file_documents_are_opened_by_the_worker_that_serves_them(
        self, make_pool, documents, tmp_path
    ):
        # A recipe whose file is gone is a failed *document* on every
        # backend — not a failed stream, worker, or source iterator.
        good = tmp_path / "good.xml"
        good.write_text(documents[0])
        stream = [
            FileDocument(str(good)),
            FileDocument(str(tmp_path / "deleted.xml")),
            FileDocument(str(good)),
        ]
        harness = make_pool(2)
        harness.pool.register(TITLES_QUERY, key="t")
        served = sorted(harness.serve(stream), key=lambda o: o.index)
        assert [o.ok for o in served] == [True, False, True]
        assert isinstance(served[1].error, FileNotFoundError)
        for outcome in (served[0], served[2]):
            assert outcome.results["t"].output == solo(TITLES_QUERY, documents[0])


class TestRegistration:
    def test_registration_is_mirrored_and_compiled_once(self, make_pool):
        harness = make_pool(3)
        pool = harness.pool
        registration = pool.register(TITLES_QUERY, key="t")
        assert registration.key == "t"
        assert len(pool) == 1 and pool.workers == 3
        assert set(pool.registrations) == {"t"}
        assert pool.plan_cache.stats.misses == 1  # one optimizer run, pool-wide
        pool.unregister("t")
        assert len(pool) == 0

    def test_register_all_and_autokeys(self, make_pool):
        pool = make_pool(2).pool
        registrations = pool.register_all([TITLES_QUERY, get_query("BIB-Q1").xquery])
        assert [r.key for r in registrations] == ["q1", "q2"]
        assert len(pool) == 2

    def test_unregister_unknown_key_raises_and_changes_nothing(self, make_pool):
        pool = make_pool(2).pool
        pool.register(TITLES_QUERY, key="t")
        with pytest.raises(KeyError):
            pool.unregister("nope")
        assert len(pool) == 1

    def test_unregister_between_loops_reaches_the_workers(self, make_pool, documents):
        harness = make_pool(2)
        harness.pool.register(get_query("BIB-Q1").xquery, key="q1")
        harness.pool.register(TITLES_QUERY, key="t")
        (first,) = harness.serve(documents[:1])
        assert set(first.results) == {"q1", "t"}
        harness.pool.unregister("q1")
        (second,) = harness.serve(documents[:1])
        assert set(second.results) == {"t"}

    @pytest.mark.parametrize("backend", sorted(POOLS))
    def test_pool_needs_at_least_one_worker(self, backend):
        with pytest.raises(ValueError, match="at least one worker"):
            POOLS[backend](BIB_DTD_STRONG, workers=0)


class TestLoopGuards:
    def test_empty_pool_serve_raises_before_consuming(self, make_pool, documents):
        harness = make_pool(2)
        iterator = iter(documents)
        with pytest.raises(ValueError, match="no queries registered"):
            next(harness.serve(iterator))
        # Nothing was pulled: catch-register-reserve loses no document.
        harness.pool.register(TITLES_QUERY, key="t")
        served = list(harness.serve(iterator))
        assert sorted(outcome.index for outcome in served) == list(
            range(len(documents))
        )

    def test_registration_rejected_while_serving(self, make_pool, documents):
        harness = make_pool(2)
        harness.pool.register(TITLES_QUERY, key="t")
        loop = harness.serve(documents)
        next(loop)
        with pytest.raises(RuntimeError, match="while a serve loop"):
            harness.pool.register(TITLES_QUERY, key="extra")
        with pytest.raises(RuntimeError, match="while a serve loop"):
            harness.pool.unregister("t")
        loop.close()
        # Closing the loop re-enables registration.
        harness.pool.register(get_query("BIB-Q1").xquery, key="extra")
        assert len(harness.pool) == 2

    def test_second_serve_while_running_is_rejected(self, make_pool, documents):
        harness = make_pool(2)
        harness.pool.register(TITLES_QUERY, key="t")
        loop = harness.serve(documents)
        next(loop)
        with pytest.raises(RuntimeError, match="already running"):
            next(harness.serve(documents[:1]))
        loop.close()
        # The guard belongs to the owning loop: closing it re-enables serve.
        assert len(list(harness.serve(documents[:2]))) == 2

    def test_closing_the_loop_early_leaves_the_pool_serviceable(
        self, make_pool, documents
    ):
        harness = make_pool(2)
        harness.pool.register(TITLES_QUERY, key="t")
        loop = harness.serve(iter(documents))
        assert next(loop).ok
        loop.close()  # in-flight passes are waited out (or cancelled)
        # Outcome counters track *delivered* documents: results the closed
        # loop drained away are not counted as served.
        assert harness.pool.metrics.documents_served == 1
        assert len(list(harness.serve(documents[:2]))) == 2
        assert harness.pool.metrics.documents_served == 3

    def test_serve_on_a_non_iterable_does_not_lock_the_pool(
        self, make_pool, documents
    ):
        harness = make_pool(2)
        harness.pool.register(TITLES_QUERY, key="t")
        with pytest.raises(TypeError):
            next(harness.serve(None))
        # The failed call must not leave the one-loop guard engaged.
        harness.pool.register(get_query("BIB-Q1").xquery, key="extra")
        assert len(list(harness.serve(documents[:2]))) == 2

    def test_source_iterator_failure_propagates(self, make_pool, documents):
        def broken():
            yield documents[0]
            raise RuntimeError("source went away")

        harness = make_pool(2)
        harness.pool.register(TITLES_QUERY, key="t")
        with pytest.raises(RuntimeError, match="source went away"):
            list(harness.serve(broken()))
        # The pool survives a source failure.
        assert len(list(harness.serve(documents[:2]))) == 2


class TestFaultIsolation:
    def test_failing_document_is_isolated_and_others_match_solo(
        self, make_pool, documents
    ):
        q1 = get_query("BIB-Q1").xquery
        stream = list(documents)
        # A real document that goes bad halfway through its pass.
        stream[2] = stream[2][: len(stream[2]) // 2] + "<<<"
        harness = make_pool(3)
        harness.pool.register(q1, key="q1")
        harness.pool.register(TITLES_QUERY, key="t")
        served = list(harness.serve(stream))
        assert sorted(outcome.index for outcome in served) == list(range(len(stream)))
        by_index = {outcome.index: outcome for outcome in served}
        failed = by_index.pop(2)
        assert failed.outcome == "error" and not failed.ok
        assert isinstance(failed.error, XMLSyntaxError)
        assert failed.error.__traceback__ is None  # outcomes pin no frames
        assert failed.results == {}
        assert failed.worker in range(3)
        # Every other document is byte-identical to its solo runs.
        for index, outcome in by_index.items():
            assert outcome.ok
            assert outcome.results["q1"].output == solo(q1, stream[index])
            assert outcome.results["t"].output == solo(TITLES_QUERY, stream[index])

    def test_abort_releases_the_failed_workers_pass_slot(self, make_pool, documents):
        # A single-worker pool must serve documents *after* the bad one on
        # the very worker that failed — the abort released its slot.
        harness = make_pool(1)
        harness.pool.register(TITLES_QUERY, key="t")
        stream = [documents[0], BAD_DOCUMENT, documents[1], documents[2]]
        served = list(harness.serve(stream))
        assert [outcome.index for outcome in served] == [0, 1, 2, 3]
        assert [outcome.outcome for outcome in served] == [
            "ok", "error", "ok", "ok",
        ]
        assert all(outcome.worker == 0 for outcome in served)
        for index in (0, 2, 3):
            assert served[index].results["t"].output == solo(
                TITLES_QUERY, stream[index]
            )
        # The pass ingested the bad document's bytes before failing.
        assert served[1].metrics.document_bytes == len(BAD_DOCUMENT.encode("utf-8"))

    def test_validation_failure_is_isolated_too(self, make_pool, documents):
        # Well-formed XML that violates the DTD is an isolated error as well.
        invalid = "<bib><title>not a book</title></bib>"
        harness = make_pool(2)
        harness.pool.register(TITLES_QUERY, key="t")
        served = list(harness.serve([documents[0], invalid, documents[1]]))
        by_index = {outcome.index: outcome for outcome in served}
        assert not by_index[1].ok
        assert by_index[0].ok and by_index[2].ok

    def test_pool_metrics_count_ok_and_failed_documents(self, make_pool, documents):
        harness = make_pool(2)
        harness.pool.register(TITLES_QUERY, key="t")
        list(harness.serve([documents[0], BAD_DOCUMENT, documents[1]]))
        metrics = harness.pool.metrics
        assert isinstance(metrics, PoolMetrics)
        assert metrics.workers == 2
        assert metrics.documents_ok == 2
        assert metrics.documents_failed == 1
        assert metrics.documents_served == 3
        # A failed pass never completes, so worker passes == ok documents.
        assert metrics.passes_completed == 2
        assert metrics.results_produced == 2
        assert sum(entry["documents_ok"] for entry in metrics.per_worker) == 2
        assert sum(entry["documents_failed"] for entry in metrics.per_worker) == 1
        summary = harness.pool.stats_summary()
        assert summary["documents_failed"] == 1
        assert summary["plan_cache"]["misses"] == 1


def _serve_with(face, documents):
    """Serve ``documents`` through one of the five serving faces; return
    ``(plan cache, registration)`` of its one standing query."""
    if face in POOLS:
        harness = Harness(face, workers=2)
        try:
            registration = harness.pool.register(TITLES_QUERY, key="t")
            assert all(outcome.ok for outcome in harness.serve(documents))
            return harness.pool.plan_cache, registration
        finally:
            harness.close()
    if face == "service":
        service = QueryService(BIB_DTD_STRONG)
        registration = service.register(TITLES_QUERY, key="t")
        assert len(list(service.serve(documents))) == len(documents)
        return service.plan_cache, registration
    service = AsyncQueryService(BIB_DTD_STRONG)
    registration = service.register(TITLES_QUERY, key="t")

    async def drive():
        return [served async for served in service.serve(documents)]

    assert len(asyncio.run(drive())) == len(documents)
    return service.plan_cache, registration


@pytest.mark.parametrize("face", ["service", "async-service", *sorted(POOLS)])
def test_every_serving_face_records_plan_observations(face, documents):
    # Calibration for `explain` / auto mode must not depend on the face a
    # fleet is served through: every pass lands in the shared plan cache
    # (for the process pool: the *parent's*, folded from shipped results).
    stream = documents[:3]
    cache, registration = _serve_with(face, stream)
    observed = cache.observations_for(registration.entry)
    assert observed is not None and observed.passes == 3
    assert observed.document_bytes == sum(len(d.encode("utf-8")) for d in stream)
    assert observed.events_routed > 0


class TestInProcessMirrors:
    """Thread and asyncio pools hold N live services sharing one cache."""

    @pytest.mark.parametrize("pool_class", [ServicePool, AsyncServicePool])
    def test_mirrors_share_the_compiled_entry(self, pool_class):
        pool = pool_class(BIB_DTD_STRONG, workers=4)
        registration = pool.register(TITLES_QUERY, key="t")
        for service in pool.services:
            assert set(service.registrations) == {"t"}
            assert service.registrations["t"].entry is registration.entry
        # One compilation; the three mirrors were cache hits.
        stats = pool.plan_cache.stats
        assert (stats.misses, stats.hits) == (1, 3)
        assert len(pool.plan_cache) == 1
        pool.unregister("t")
        assert all(len(service) == 0 for service in pool.services)

    def test_failed_pass_leaves_no_active_pass_on_the_worker(self, documents):
        pool = ServicePool(BIB_DTD_STRONG, workers=1)
        pool.register(TITLES_QUERY, key="t")
        assert [o.ok for o in pool.serve([BAD_DOCUMENT, documents[0]])] == [
            False, True,
        ]
        assert pool.services[0].active_pass is None

    def test_no_pool_thread_survives_a_finished_or_closed_loop(self, documents):
        before = threading.active_count()
        pool = ServicePool(BIB_DTD_STRONG, workers=3)
        pool.register(TITLES_QUERY, key="t")
        assert len(list(pool.serve(documents))) == len(documents)
        assert threading.active_count() == before
        loop = pool.serve(documents)
        next(loop)
        assert threading.active_count() > before
        loop.close()
        assert threading.active_count() == before

    def test_concurrent_registration_across_workers_compiles_once(self):
        """N workers registering the same query concurrently: one optimizer
        run, the rest coalesce onto the leader's flight (or hit)."""
        pool = ServicePool(BIB_DTD_STRONG, workers=4)
        barrier = threading.Barrier(4)
        errors = []

        def register_on(service: QueryService) -> None:
            barrier.wait()
            try:
                service.register(TITLES_QUERY, key="t")
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [
            threading.Thread(target=register_on, args=(service,))
            for service in pool.services
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = pool.plan_cache.stats
        assert stats.misses == 1  # exactly one compilation across the pool
        assert stats.coalesced + stats.hits == 3
        assert len(pool.plan_cache) == 1
        # The mirror is intact: every worker serves the query.
        document = generate_bibliography(num_books=5, seed=9)
        served = list(pool.serve([document] * 4))
        assert all(outcome.ok for outcome in served)
        for outcome in served:
            assert outcome.results["t"].output == solo(TITLES_QUERY, document)

    def test_pool_shares_an_external_cache_with_services(self):
        cache = PlanCache()
        QueryService(BIB_DTD_STRONG, plan_cache=cache).register(TITLES_QUERY)
        pool = ServicePool(BIB_DTD_STRONG, workers=3, plan_cache=cache)
        pool.register(TITLES_QUERY, key="t")
        # The pool paid nothing: the plan was already cached.
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3


class TestAsyncTransport:
    def test_async_chunk_feeds_overlap_across_workers(self, documents):
        # Each document arrives as an async chunk feed; the pool serves
        # them all, byte-identical.
        pool = AsyncServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")

        def feed(document):
            async def chunks():
                for start in range(0, len(document), 2048):
                    await asyncio.sleep(0)
                    yield document[start : start + 2048]

            return chunks()

        async def sources():
            for document in documents[:4]:
                yield feed(document)

        async def collect():
            return [outcome async for outcome in pool.serve(sources())]

        served = asyncio.run(collect())
        assert sorted(outcome.index for outcome in served) == [0, 1, 2, 3]
        for outcome in served:
            assert outcome.results["t"].output == solo(
                TITLES_QUERY, documents[outcome.index]
            )
