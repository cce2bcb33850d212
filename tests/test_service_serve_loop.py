"""The long-lived serving loop: many documents, registration churn, one pass
at a time.

The acceptance bar of the serve loop: a service living across >= 3 documents
— with queries registered, unregistered, and replaced *between* passes —
produces, for every (document, query) pair it served, output byte-identical
to a fresh solo ``FluxEngine.execute`` of that query over that document, and
its metrics (per-pass and cumulative) stay consistent throughout.
"""

import asyncio
import io

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.errors import PassInProgressError
from repro.service import AsyncQueryService, QueryService, ServedDocument
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import get_query

from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD, PAPER_Q3

TITLES_QUERY = "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"


@pytest.fixture(scope="module")
def documents():
    return [
        generate_bibliography(num_books=books, seed=seed)
        for books, seed in [(8, 1), (13, 2), (21, 3), (5, 4)]
    ]


def solo(query: str, document: str) -> str:
    return FluxEngine(BIB_DTD_STRONG).execute(query, document).output


class TestServeLoop:
    @pytest.mark.parametrize("face", ["sync", "async"])
    def test_serve_matches_solo_per_document(self, documents, face):
        q1 = get_query("BIB-Q1").xquery
        q3 = get_query("BIB-Q3").xquery
        if face == "sync":
            service = QueryService(BIB_DTD_STRONG)
        else:
            front = AsyncQueryService(BIB_DTD_STRONG)
            service = front.service
        service.register(q1, key="q1")
        service.register(q3, key="q3")
        if face == "sync":
            served = list(service.serve(documents))
        else:

            async def collect():
                return [outcome async for outcome in front.serve(documents)]

            served = asyncio.run(collect())
        assert [outcome.index for outcome in served] == [0, 1, 2, 3]
        for outcome, document in zip(served, documents):
            assert isinstance(outcome, ServedDocument)
            assert outcome.results["q1"].output == solo(q1, document)
            assert outcome.results["q3"].output == solo(q3, document)
        assert service.metrics.passes_completed == len(documents)

    def test_serve_accepts_file_like_documents(self, documents):
        service = QueryService(BIB_DTD_STRONG)
        service.register(TITLES_QUERY, key="t")
        served = list(service.serve(io.StringIO(doc) for doc in documents[:3]))
        for outcome, document in zip(served, documents):
            assert outcome.results["t"].output == solo(TITLES_QUERY, document)

    def test_cumulative_metrics_accumulate_across_passes(self, documents):
        service = QueryService(BIB_DTD_STRONG)
        service.register(TITLES_QUERY, key="t")
        per_pass_events = [
            outcome.metrics.parser_events for outcome in service.serve(documents)
        ]
        assert all(events > 0 for events in per_pass_events)
        assert service.metrics.parser_events_total == sum(per_pass_events)
        assert service.metrics.results_produced == len(documents)
        assert service.metrics.last_pass.parser_events == per_pass_events[-1]

    def test_plans_compile_once_across_the_loop(self, documents):
        service = QueryService(BIB_DTD_STRONG)
        service.register(TITLES_QUERY, key="t")
        list(service.serve(documents))
        # One miss at registration; the loop itself never touches the
        # optimizer again (sessions are fresh, plans are reused).
        assert service.plan_cache.stats.misses == 1
        assert service.registrations["t"].passes == len(documents)

    def test_serve_with_empty_service_raises(self, documents):
        service = QueryService(BIB_DTD_STRONG)
        with pytest.raises(ValueError, match="no queries registered"):
            list(service.serve(documents))

    def test_empty_service_error_does_not_consume_a_document(self, documents):
        """Catch the ValueError, register, re-serve the same iterator: no
        document may have been silently lost to the failed attempt."""
        service = QueryService(BIB_DTD_STRONG)
        iterator = iter(documents)
        with pytest.raises(ValueError, match="no queries registered"):
            next(service.serve(iterator))
        service.register(TITLES_QUERY, key="t")
        served = list(service.serve(iterator))
        assert len(served) == len(documents)  # document 0 was not consumed
        for outcome, document in zip(served, documents):
            assert outcome.results["t"].output == solo(TITLES_QUERY, document)

    def test_emptied_service_fails_before_pulling_the_next_document(self, documents):
        service = QueryService(BIB_DTD_STRONG)
        service.register(TITLES_QUERY, key="t")
        iterator = iter(documents)
        loop = service.serve(iterator)
        next(loop)
        service.unregister("t")
        with pytest.raises(ValueError, match="document 1"):
            next(loop)
        # The offending document is still on the iterator.
        assert next(iterator) == documents[1]

    def test_failing_document_aborts_and_frees_the_slot(self, documents):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        from repro.errors import XMLSyntaxError

        with pytest.raises(XMLSyntaxError):
            list(service.serve([PAPER_DOCUMENT, "<bib><book>", PAPER_DOCUMENT]))
        assert service.active_pass is None
        # The service survives: a fresh loop serves cleanly.
        assert service.run_pass(PAPER_DOCUMENT)["q3"].output

    @pytest.mark.parametrize("face", ["run_pass", "serve", "serve_document"])
    def test_the_document_step_tags_and_the_plain_faces_reraise(self, face):
        # serve_document folds a failure into an error outcome; run_pass
        # and serve raise that very exception — original type, traceback
        # reaching down to the parser frame that raised it (only pools
        # strip tracebacks).
        import traceback

        from repro.errors import XMLSyntaxError

        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        if face == "serve_document":
            served = service.serve_document("<bib><book>", index=7)
            assert (served.outcome, served.index, served.results) == ("error", 7, {})
            assert served.metrics.document_bytes == len("<bib><book>")
            error = served.error
        else:
            with pytest.raises(XMLSyntaxError) as raised:
                if face == "run_pass":
                    service.run_pass("<bib><book>")
                else:
                    list(service.serve(["<bib><book>"]))
            error = raised.value
        assert type(error) is XMLSyntaxError
        frames = traceback.extract_tb(error.__traceback__)
        assert frames[-1].filename.endswith("xmlstream/parser.py")
        assert service.active_pass is None

    def test_a_non_exception_aborts_the_pass_and_propagates(self):
        class Interrupting:
            def read(self, size):
                raise KeyboardInterrupt

        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        with pytest.raises(KeyboardInterrupt):
            service.serve_document(Interrupting())
        assert service.active_pass is None


class TestRegistrationChurn:
    """Register / unregister / replace between passes of one serve loop."""

    def test_register_mid_loop(self, documents):
        q1 = get_query("BIB-Q1").xquery
        service = QueryService(BIB_DTD_STRONG)
        service.register(q1, key="q1")
        loop = service.serve(documents[:3])
        first = next(loop)
        assert set(first.results) == {"q1"}
        service.register(TITLES_QUERY, key="t")
        second = next(loop)
        assert set(second.results) == {"q1", "t"}
        assert second.metrics.queries == 2
        third = next(loop)
        for outcome, document in [(second, documents[1]), (third, documents[2])]:
            assert outcome.results["q1"].output == solo(q1, document)
            assert outcome.results["t"].output == solo(TITLES_QUERY, document)
        assert service.metrics.queries_registered == 2
        assert service.metrics.results_produced == 1 + 2 + 2

    def test_unregister_mid_loop(self, documents):
        q1 = get_query("BIB-Q1").xquery
        service = QueryService(BIB_DTD_STRONG)
        service.register(q1, key="q1")
        service.register(TITLES_QUERY, key="t")
        loop = service.serve(documents[:2])
        first = next(loop)
        assert set(first.results) == {"q1", "t"}
        service.unregister("q1")
        second = next(loop)
        assert set(second.results) == {"t"}
        assert second.metrics.queries == 1
        assert second.results["t"].output == solo(TITLES_QUERY, documents[1])
        # Live-query invariant holds after the churn.
        metrics = service.metrics
        assert (
            metrics.queries_registered
            - metrics.queries_unregistered
            - metrics.queries_replaced
            == len(service)
            == 1
        )

    def test_replace_key_mid_loop(self, documents):
        q1 = get_query("BIB-Q1").xquery
        q4 = get_query("BIB-Q4").xquery
        service = QueryService(BIB_DTD_STRONG)
        service.register(q1, key="q")
        loop = service.serve(documents[:2])
        first = next(loop)
        assert first.results["q"].output == solo(q1, documents[0])
        service.register(q4, key="q")  # replace under the same key
        second = next(loop)
        assert second.results["q"].output == solo(q4, documents[1])
        metrics = service.metrics
        assert metrics.queries_replaced == 1
        assert (
            metrics.queries_registered
            - metrics.queries_unregistered
            - metrics.queries_replaced
            == len(service)
            == 1
        )

    def test_churn_does_not_affect_open_pass_snapshot(self, documents):
        # A pass snapshots registrations when opened; churn while it runs
        # applies from the next pass on.
        service = QueryService(BIB_DTD_STRONG)
        service.register(TITLES_QUERY, key="t")
        shared_pass = service.open_pass()
        service.register(get_query("BIB-Q1").xquery, key="late")
        shared_pass.feed(documents[0])
        results = shared_pass.finish()
        assert set(results) == {"t"}
        assert set(service.run_pass(documents[0])) == {"t", "late"}


class TestOnePassAtATime:
    def test_open_pass_while_in_flight_raises(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        shared_pass = service.open_pass()
        assert service.active_pass is shared_pass
        with pytest.raises(PassInProgressError):
            service.open_pass()
        with pytest.raises(PassInProgressError):
            service.run_pass(PAPER_DOCUMENT)
        shared_pass.feed(PAPER_DOCUMENT)
        shared_pass.finish()
        assert service.active_pass is None
        assert service.run_pass(PAPER_DOCUMENT)["q3"].output

    def test_abort_frees_the_slot(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        shared_pass = service.open_pass()
        shared_pass.abort()
        assert service.active_pass is None
        assert service.run_pass(PAPER_DOCUMENT)["q3"].output

    def test_context_manager_frees_the_slot(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        with service.open_pass() as shared_pass:
            shared_pass.feed(PAPER_DOCUMENT)
        assert service.active_pass is None

    def test_abandoned_pass_frees_the_slot_via_gc(self):
        import gc

        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        shared_pass = service.open_pass()
        shared_pass.feed("<bib>")
        del shared_pass
        gc.collect()
        assert service.active_pass is None
        assert service.run_pass(PAPER_DOCUMENT)["q3"].output

    def test_error_message_names_the_remedy(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        shared_pass = service.open_pass()  # held: a dropped pass frees its slot
        with pytest.raises(PassInProgressError, match="finish\\(\\) or abort\\(\\)"):
            service.open_pass()
        shared_pass.abort()
