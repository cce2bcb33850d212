"""Push-based plan execution: EvaluatorSession and FluxQuerySession."""

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.errors import EvaluationError, XMLValidationError
from repro.runtime.evaluator import EvaluatorSession
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import get_query
from repro.xmlstream.parser import StreamingXMLParser, parse_events

from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD, PAPER_Q3


@pytest.fixture(scope="module")
def engine():
    return FluxEngine(PAPER_FIGURE1_DTD)


class TestFluxQuerySession:
    def test_single_feed_matches_execute(self, engine):
        compiled = engine.compile(PAPER_Q3)
        solo = compiled.execute(PAPER_DOCUMENT)
        session = compiled.start()
        session.feed(parse_events(PAPER_DOCUMENT))
        result = session.finish()
        assert result.output == solo.output
        assert result.engine == "flux"

    @pytest.mark.parametrize("size", [1, 13, 200])
    def test_chunked_feed_matches_execute(self, engine, size):
        compiled = engine.compile(PAPER_Q3)
        solo = compiled.execute(PAPER_DOCUMENT)
        session = compiled.start()
        parser = StreamingXMLParser.incremental()
        for start in range(0, len(PAPER_DOCUMENT), size):
            session.feed(parser.feed(PAPER_DOCUMENT[start : start + size]))
        session.feed(parser.close())
        assert session.finish().output == solo.output

    def test_finish_is_idempotent(self, engine):
        session = engine.compile(PAPER_Q3).start()
        session.feed(parse_events(PAPER_DOCUMENT))
        first = session.finish()
        assert session.finish().output == first.output

    def test_feed_after_finish_raises(self, engine):
        session = engine.compile(PAPER_Q3).start()
        session.feed(parse_events(PAPER_DOCUMENT))
        session.finish()
        with pytest.raises(EvaluationError):
            session.feed([])

    def test_validation_error_propagates_to_caller(self, engine):
        invalid = "<bib><book><title>t</title></book></bib>"  # missing children
        session = engine.compile(PAPER_Q3).start()
        with pytest.raises(XMLValidationError):
            session.feed(parse_events(invalid))
            session.finish()

    def test_abort_discards_session(self, engine):
        session = engine.compile(PAPER_Q3).start()
        session.feed(parse_events(PAPER_DOCUMENT))
        session.abort()
        # A fresh session still works (sessions are single-use, plans are not).
        solo = engine.execute(PAPER_Q3, PAPER_DOCUMENT)
        assert solo.output

    def test_finish_after_abort_raises_instead_of_truncated_output(self, engine):
        session = engine.compile(PAPER_Q3).start()
        events = list(parse_events(PAPER_DOCUMENT))
        session.feed(events[: len(events) // 2])
        session.abort()
        with pytest.raises(EvaluationError):
            session.finish()
        with pytest.raises(EvaluationError):
            session.feed(events)

    def test_early_terminating_plan_drops_surplus_input(self):
        # BIB-Q6's unsatisfiable conditional finishes after one event; the
        # session must drop the rest of the input, not choke on it.
        engine = FluxEngine(BIB_DTD_STRONG)
        document = generate_bibliography(num_books=50, seed=3)
        spec = get_query("BIB-Q6")
        solo = engine.execute(spec.xquery, document)
        session = engine.compile(spec.xquery).start()
        events = list(parse_events(document))
        for start in range(0, len(events), 100):
            session.feed(events[start : start + 100])
        assert session.finish().output == solo.output


class TestEvaluatorSessionLifecycle:
    def test_feed_before_start_raises(self, engine):
        compiled = engine.compile(PAPER_Q3)
        session = EvaluatorSession(compiled.plan, engine.dtd)
        with pytest.raises(EvaluationError):
            session.feed([])
        with pytest.raises(EvaluationError):
            session.finish()

    def test_double_start_raises(self, engine):
        compiled = engine.compile(PAPER_Q3)
        session = EvaluatorSession(compiled.plan, engine.dtd).start()
        with pytest.raises(EvaluationError):
            session.start()
        session.abort()

    def test_lifecycle_errors(self, engine):
        compiled = engine.compile(PAPER_Q3)
        session = EvaluatorSession(compiled.plan, engine.dtd).start()
        session.abort()
        with pytest.raises(EvaluationError):
            session.feed([])
        with pytest.raises(EvaluationError):
            session.finish()

    def test_abort_closes_the_suspended_generator(self, engine):
        compiled = engine.compile(PAPER_Q3)
        session = EvaluatorSession(compiled.plan, engine.dtd).start()
        session.feed(list(parse_events(PAPER_DOCUMENT))[:3])
        generator = session._generator
        assert generator is not None and generator.gi_frame is not None
        session.abort()
        assert session._generator is None
        assert generator.gi_frame is None  # closed, not merely dropped
        session.abort()  # idempotent

    def test_validation_error_raises_from_the_triggering_feed(self, engine):
        invalid = list(parse_events("<bib><book><title>t</title></book></bib>"))
        compiled = engine.compile(PAPER_Q3)
        session = EvaluatorSession(compiled.plan, engine.dtd).start()
        with pytest.raises(XMLValidationError):
            session.feed(invalid)
        with pytest.raises(XMLValidationError):  # and again at finish
            session.finish()

    def test_push_sessions_spawn_no_thread(self, engine):
        import threading

        compiled = engine.compile(PAPER_Q3)
        before = threading.active_count()
        finished = compiled.start()
        assert threading.active_count() == before
        finished.feed(parse_events(PAPER_DOCUMENT))
        finished.finish()
        for _ in range(5):  # dropped without finish()/abort()
            dropped = compiled.start()
            dropped.feed(list(parse_events(PAPER_DOCUMENT))[:3])
        del dropped
        assert threading.active_count() == before
