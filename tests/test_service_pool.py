"""The fault-isolated service pool: sharding, mirrored registration, shared
cache, and the failure paths.

The acceptance bar of the pool: documents sharded across N workers produce,
for every (document, query) pair, output byte-identical to a fresh solo
``FluxEngine.execute`` — including every *other* document when one document
fails mid-pass, which must surface as an error-tagged ``ServedDocument``
(not exhaust the loop), release the failing worker's pass slot, and leave
the pool serving.
"""

import asyncio
import threading
import time

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.errors import XMLSyntaxError
from repro.runtime.plan_cache import PlanCache
from repro.service import (
    AsyncServicePool,
    PoolMetrics,
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


@pytest.fixture(scope="module")
def documents():
    return [
        generate_bibliography(num_books=books, seed=seed)
        for books, seed in [(8, 1), (13, 2), (21, 3), (5, 4), (11, 5), (7, 6)]
    ]


def solo(query: str, document: str) -> str:
    return FluxEngine(BIB_DTD_STRONG).execute(query, document).output


class TestPoolBasics:
    def test_sharded_serve_matches_solo_per_document(self, documents):
        q1 = get_query("BIB-Q1").xquery
        pool = ServicePool(BIB_DTD_STRONG, workers=3)
        pool.register(q1, key="q1")
        pool.register(TITLES_QUERY, key="t")
        served = list(pool.serve(documents))
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

    def test_registrations_are_mirrored_across_workers(self):
        pool = ServicePool(BIB_DTD_STRONG, workers=3)
        registration = pool.register(TITLES_QUERY, key="t")
        assert registration.key == "t"
        assert len(pool) == 1
        assert set(pool.registrations) == {"t"}
        for service in pool.services:
            assert set(service.registrations) == {"t"}
            # Every mirror shares the same compiled plan entry.
            assert service.registrations["t"].entry is registration.entry
        pool.unregister("t")
        assert len(pool) == 0
        for service in pool.services:
            assert len(service) == 0

    def test_register_all_and_autokeys(self):
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        registrations = pool.register_all([TITLES_QUERY, get_query("BIB-Q1").xquery])
        assert [r.key for r in registrations] == ["q1", "q2"]
        assert len(pool) == 2

    def test_unregister_unknown_key_raises_and_changes_nothing(self):
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        with pytest.raises(KeyError):
            pool.unregister("nope")
        assert len(pool) == 1

    def test_pool_needs_at_least_one_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ServicePool(BIB_DTD_STRONG, workers=0)

    def test_empty_pool_serve_raises_before_consuming(self, documents):
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        iterator = iter(documents)
        with pytest.raises(ValueError, match="no queries registered"):
            next(pool.serve(iterator))
        # Nothing was pulled: catch-register-reserve loses no document.
        pool.register(TITLES_QUERY, key="t")
        served = list(pool.serve(iterator))
        assert sorted(outcome.index for outcome in served) == list(
            range(len(documents))
        )

    def test_registration_rejected_while_serving(self, documents):
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        loop = pool.serve(documents)
        next(loop)
        with pytest.raises(RuntimeError, match="while a serve loop"):
            pool.register(TITLES_QUERY, key="extra")
        with pytest.raises(RuntimeError, match="while a serve loop"):
            pool.unregister("t")
        loop.close()
        # Closing the loop re-enables registration.
        pool.register(get_query("BIB-Q1").xquery, key="extra")
        assert len(pool) == 2

    def test_closing_the_loop_early_stops_the_shard(self, documents):
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        loop = pool.serve(iter(documents))
        first = next(loop)
        assert first.ok
        loop.close()  # workers finish in-flight passes and exit
        # Outcome counters track *delivered* documents: results the closed
        # loop drained away are not counted as served.
        assert pool.metrics.documents_served == 1
        # The pool remains serviceable for the next loop.
        assert len(list(pool.serve(documents[:2]))) == 2
        assert pool.metrics.documents_served == 3

    def test_lazy_source_is_pulled_on_demand(self, documents):
        # Backpressure: with the result queue bounded to the worker count,
        # a stalled consumer caps the shard at (in flight) + (queued) +
        # (consumed) = 2 * workers + taken documents, however long the
        # stream.  The source must never be drained eagerly.
        pulled = []

        def source():
            for document in documents:
                pulled.append(document)
                yield document

        workers = 2
        pool = ServicePool(BIB_DTD_STRONG, workers=workers)
        pool.register(TITLES_QUERY, key="t")
        loop = pool.serve(source())
        next(loop)
        deadline = time.time() + 1.0
        while time.time() < deadline:  # give the shard every chance to run
            time.sleep(0.01)
        assert len(pulled) <= 2 * workers + 1 < len(documents)
        loop.close()

    def test_second_serve_while_running_is_rejected(self, documents):
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        loop = pool.serve(documents)
        next(loop)
        with pytest.raises(RuntimeError, match="already running"):
            next(pool.serve(documents[:1]))
        loop.close()
        # The guard belongs to the owning loop: closing it re-enables serve.
        assert len(list(pool.serve(documents[:2]))) == 2

    def test_serve_on_a_non_iterable_does_not_lock_the_pool(self, documents):
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        with pytest.raises(TypeError):
            next(pool.serve(None))
        # The failed call must not leave the one-loop guard engaged.
        pool.register(get_query("BIB-Q1").xquery, key="extra")
        assert len(list(pool.serve(documents[:2]))) == 2

    def test_source_iterator_failure_propagates(self, documents):
        def broken():
            yield documents[0]
            raise RuntimeError("source went away")

        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        with pytest.raises(RuntimeError, match="source went away"):
            list(pool.serve(broken()))
        # The pool survives a source failure.
        assert len(list(pool.serve(documents[:2]))) == 2


class TestPoolFaultIsolation:
    def test_failing_document_is_isolated_and_others_match_solo(self, documents):
        q1 = get_query("BIB-Q1").xquery
        stream = list(documents)
        stream[2] = BAD_DOCUMENT
        pool = ServicePool(BIB_DTD_STRONG, workers=3)
        pool.register(q1, key="q1")
        pool.register(TITLES_QUERY, key="t")
        served = list(pool.serve(stream))
        assert sorted(outcome.index for outcome in served) == list(range(len(stream)))
        by_index = {outcome.index: outcome for outcome in served}
        failed = by_index[2]
        assert failed.outcome == "error" and not failed.ok
        assert isinstance(failed.error, XMLSyntaxError)
        assert failed.results == {}
        assert failed.worker in range(3)
        # Every other document is byte-identical to its solo runs.
        for index, outcome in by_index.items():
            if index == 2:
                continue
            assert outcome.ok
            assert outcome.results["q1"].output == solo(q1, stream[index])
            assert outcome.results["t"].output == solo(TITLES_QUERY, stream[index])

    def test_abort_releases_the_failed_workers_pass_slot(self, documents):
        # A single-worker pool must serve documents *after* the bad one on
        # the very worker that failed — the abort released its slot.
        pool = ServicePool(BIB_DTD_STRONG, workers=1)
        pool.register(TITLES_QUERY, key="t")
        stream = [documents[0], BAD_DOCUMENT, documents[1], documents[2]]
        served = list(pool.serve(stream))
        assert [outcome.index for outcome in served] == [0, 1, 2, 3]
        assert [outcome.outcome for outcome in served] == [
            "ok",
            "error",
            "ok",
            "ok",
        ]
        assert all(outcome.worker == 0 for outcome in served)
        for index in (0, 2, 3):
            assert served[index].results["t"].output == solo(
                TITLES_QUERY, stream[index]
            )
        # The worker's service holds no stuck pass.
        assert pool.services[0].active_pass is None

    def test_error_outcome_carries_partial_pass_metrics(self, documents):
        pool = ServicePool(BIB_DTD_STRONG, workers=1)
        pool.register(TITLES_QUERY, key="t")
        served = list(pool.serve([BAD_DOCUMENT]))
        (failed,) = served
        assert failed.outcome == "error"
        # The pass ingested the bad document's bytes before failing.
        assert failed.metrics.document_bytes == len(BAD_DOCUMENT.encode("utf-8"))

    def test_pool_metrics_count_ok_and_failed_documents(self, documents):
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        stream = [documents[0], BAD_DOCUMENT, documents[1]]
        list(pool.serve(stream))
        metrics = pool.metrics
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
        summary = pool.stats_summary()
        assert summary["documents_failed"] == 1
        assert summary["plan_cache"]["misses"] == 1

    def test_validation_failure_is_isolated_too(self, documents):
        # Well-formed XML that violates the DTD is an isolated error as well.
        invalid = "<bib><title>not a book</title></bib>"
        pool = ServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        served = list(pool.serve([documents[0], invalid, documents[1]]))
        by_index = {outcome.index: outcome for outcome in served}
        assert not by_index[1].ok
        assert by_index[0].ok and by_index[2].ok


class TestPoolSharedCache:
    def test_mirrored_registration_compiles_once(self):
        pool = ServicePool(BIB_DTD_STRONG, workers=4)
        pool.register(TITLES_QUERY, key="t")
        stats = pool.plan_cache.stats
        # One compilation; the three mirrors were cache hits.
        assert stats.misses == 1
        assert stats.hits == 3
        assert len(pool.plan_cache) == 1

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


class TestAsyncPool:
    def drive(self, pool, documents):
        async def collect():
            return [outcome async for outcome in pool.serve(documents)]

        return asyncio.run(collect())

    def test_sharded_serve_matches_solo(self, documents):
        pool = AsyncServicePool(BIB_DTD_STRONG, workers=3)
        pool.register(TITLES_QUERY, key="t")
        served = self.drive(pool, documents)
        assert sorted(outcome.index for outcome in served) == list(
            range(len(documents))
        )
        for outcome in served:
            assert outcome.ok and outcome.worker in range(3)
            assert outcome.results["t"].output == solo(
                TITLES_QUERY, documents[outcome.index]
            )

    def test_failing_document_is_isolated(self, documents):
        stream = [documents[0], BAD_DOCUMENT, documents[1]]
        pool = AsyncServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")
        served = self.drive(pool, stream)
        by_index = {outcome.index: outcome for outcome in served}
        assert not by_index[1].ok
        assert isinstance(by_index[1].error, XMLSyntaxError)
        for index in (0, 2):
            assert by_index[index].results["t"].output == solo(
                TITLES_QUERY, stream[index]
            )
        metrics = pool.metrics
        assert metrics.documents_ok == 2 and metrics.documents_failed == 1

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

    def test_empty_pool_serve_raises(self, documents):
        pool = AsyncServicePool(BIB_DTD_STRONG, workers=2)
        with pytest.raises(ValueError, match="no queries registered"):
            self.drive(pool, documents)

    def test_mirrored_registration_compiles_once(self):
        pool = AsyncServicePool(BIB_DTD_STRONG, workers=4)
        pool.register(TITLES_QUERY, key="t")
        assert pool.plan_cache.stats.misses == 1
        assert pool.plan_cache.stats.hits == 3

    def test_second_serve_while_running_is_rejected(self, documents):
        pool = AsyncServicePool(BIB_DTD_STRONG, workers=2)
        pool.register(TITLES_QUERY, key="t")

        async def drive():
            loop = pool.serve(documents)
            await loop.__anext__()
            with pytest.raises(RuntimeError, match="already running"):
                await pool.serve(documents[:1]).__anext__()
            await loop.aclose()

        asyncio.run(drive())
        # Closing the first loop re-enables serving.
        assert len(self.drive(pool, documents[:2])) == 2
