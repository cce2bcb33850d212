"""Per-query event routing, serving faces, and shared-pass lifecycle fixes.

PR 2's invariant sharpens PR 1's: not only must the shared pass agree
byte-for-byte with solo runs, it must do so while forwarding to each query
only the events *that query's* profile admits — rule (c) of the pruning
semantics (children of condition-bearing elements are always forwarded)
holds per plan, not just for the union.  The property test drives both
faces of the one pass (the sync ``QueryService`` and the asyncio
``AsyncQueryService``) under hypothesis-chosen feed chunkings.
"""

import asyncio
import gc
import threading
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines.flux_engine import FluxEngine
from repro.runtime.evaluator import EvaluatorSession
from repro.service import AsyncQueryService, PlanCache, QueryService
from repro.service.dispatcher import PlanProfile, SharedProjectionIndex
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.workloads.queries import get_query, queries_for_workload
from repro.workloads.xmark import generate_auction_site
from repro.xmlstream.events import EndElement, SkippedSubtree, StartElement
from repro.xmlstream.parser import StreamingXMLParser

from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD, PAPER_Q3

FACES = ["sync", "async"]


def _run_face(face, dtd, queries, pieces, plan_cache=None):
    """One pass over ``pieces`` through the chosen face.

    Returns ``({key: output}, per_query_forwarded)``.
    """
    if face == "sync":
        service = QueryService(dtd, plan_cache=plan_cache)
        for key, text in queries:
            service.register(text, key=key)
        shared_pass = service.open_pass()
        for piece in pieces:
            shared_pass.feed(piece)
        results = shared_pass.finish()
    else:
        async_service = AsyncQueryService(dtd, plan_cache=plan_cache)
        for key, text in queries:
            async_service.register(text, key=key)

        async def drive():
            async_pass = async_service.open_pass()
            for piece in pieces:
                await async_pass.feed(piece)
            return await async_pass.finish()

        results = asyncio.run(drive())
        service = async_service.service
    outputs = {key: result.output for key, result in results.items()}
    return outputs, dict(service.metrics.last_pass.per_query_forwarded)


@pytest.fixture(scope="module")
def bib_document():
    return generate_bibliography(num_books=12, seed=42)


@pytest.fixture(scope="module")
def auction_document():
    return generate_auction_site(scale=0.3, seed=42)


@pytest.fixture(scope="module")
def bib_solo(bib_document):
    engine = FluxEngine(BIB_DTD_STRONG)
    return {
        spec.key: engine.execute(spec.xquery, bib_document).output
        for spec in queries_for_workload("bib")
    }


@pytest.fixture(scope="module")
def shared_plan_cache():
    # One cache for all property examples: each example pays registration,
    # not recompilation.
    return PlanCache()


def _chunks(document, cuts):
    positions = sorted({min(cut, len(document)) for cut in cuts})
    pieces, last = [], 0
    for position in positions + [len(document)]:
        if position > last:
            pieces.append(document[last:position])
            last = position
    return pieces


class TestRoutingInvariant:
    """Shared routed output == solo output, any chunking, both faces."""

    @given(
        face=st.sampled_from(FACES),
        cuts=st.lists(st.integers(min_value=1, max_value=20_000), max_size=8),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_routed_outputs_match_solo_under_random_chunkings(
        self, bib_document, bib_solo, shared_plan_cache, face, cuts
    ):
        queries = [(spec.key, spec.xquery) for spec in queries_for_workload("bib")]
        outputs, _ = _run_face(
            face, BIB_DTD_STRONG, queries, _chunks(bib_document, cuts), shared_plan_cache
        )
        for key, solo_output in bib_solo.items():
            assert outputs[key] == solo_output, key

    @pytest.mark.parametrize("face", FACES)
    def test_auction_fleet_agrees_with_solo(self, auction_document, face):
        specs = queries_for_workload("auction")
        engine = FluxEngine(AUCTION_DTD)
        queries = [(spec.key, spec.xquery) for spec in specs]
        outputs, _ = _run_face(face, AUCTION_DTD, queries, [auction_document])
        for spec in specs:
            solo = engine.execute(spec.xquery, auction_document)
            assert outputs[spec.key] == solo.output, spec.key


class TestPerQueryCounters:
    def test_sparse_query_receives_strictly_fewer_events(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        for spec in queries_for_workload("bib"):
            service.register(spec.xquery, key=spec.key)
        service.run_pass(bib_document)
        metrics = service.metrics.last_pass
        forwarded = metrics.events_forwarded
        assert metrics.per_query_forwarded  # filled by finalize_metrics()
        assert set(metrics.per_query_forwarded) == {
            spec.key for spec in queries_for_workload("bib")
        }
        # Routed + suppressed partitions the union broadcast, per query.
        for key, routed in metrics.per_query_forwarded.items():
            assert 0 < routed <= forwarded
            assert metrics.per_query_pruned[key] == forwarded - routed
        # The point of routing: somebody beats the union strictly.
        assert any(
            routed < forwarded for routed in metrics.per_query_forwarded.values()
        )

    def test_routing_is_face_independent(self, bib_document):
        queries = [(spec.key, spec.xquery) for spec in queries_for_workload("bib")]
        counts = {
            face: _run_face(face, BIB_DTD_STRONG, queries, [bib_document])[1]
            for face in FACES
        }
        assert counts["sync"] and counts["sync"] == counts["async"]

    def test_single_query_pass_routes_everything_forwarded(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        service.register(get_query("BIB-Q1").xquery, key="q")
        service.run_pass(bib_document)
        metrics = service.metrics.last_pass
        assert metrics.per_query_forwarded["q"] == metrics.events_forwarded
        assert metrics.per_query_pruned["q"] == 0


class TestOneDriver:
    def test_default_pass_spawns_no_threads(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        for spec in queries_for_workload("bib"):
            service.register(spec.xquery, key=spec.key)
        before = threading.active_count()
        results = service.run_pass(bib_document)
        assert threading.active_count() == before
        assert len(results) == len(queries_for_workload("bib"))

    def test_unknown_execution_mode_rejected(self):
        with pytest.raises(ValueError):
            QueryService(BIB_DTD_STRONG, execution="fibers")

    def test_removed_threads_alias_is_rejected(self):
        with pytest.raises(ValueError, match="'threads'"):
            QueryService(BIB_DTD_STRONG, execution="threads")

    def test_inline_alias_is_silent(self, recwarn):
        QueryService(BIB_DTD_STRONG, execution="inline")
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]

    def test_validation_error_raises_from_feed(self):
        # The shared validator and every evaluation run on the feeding
        # thread, so the whole failure path is synchronous.
        from repro.errors import XMLValidationError

        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        shared_pass = service.open_pass()
        with pytest.raises(XMLValidationError):
            shared_pass.feed("<bib><bad/></bib>")
        assert shared_pass.aborted and service.active_pass is None


class TestSharedPassLifecycleFixes:
    def test_failed_kth_session_start_closes_earlier_generators(self, monkeypatch):
        # Regression: the 3rd of 4 sessions fails to start; the 2 already
        # suspended generators must be closed and the slot released.
        service = QueryService(BIB_DTD_STRONG)
        for index, spec in enumerate(queries_for_workload("bib")[:4]):
            service.register(spec.xquery, key=spec.key)
        real_start = EvaluatorSession.start
        started = []

        def failing_start(session):
            if len(started) == 2:
                raise RuntimeError("injected start failure")
            started.append(session)
            return real_start(session)

        monkeypatch.setattr(EvaluatorSession, "start", failing_start)
        with pytest.raises(RuntimeError):
            service.open_pass()
        assert len(started) == 2
        assert all(session._generator is None for session in started)
        assert service.active_pass is None

    def test_failed_constructor_tail_closes_started_generators(self, monkeypatch):
        # Same leak class, later in the constructor: all sessions started,
        # then the routing-index build fails.
        import repro.service.session as session_module

        def exploding_index(*args, **kwargs):
            raise RuntimeError("injected index failure")

        real_start = EvaluatorSession.start
        started = []

        def recording_start(session):
            started.append(session)
            return real_start(session)

        monkeypatch.setattr(EvaluatorSession, "start", recording_start)
        monkeypatch.setattr(session_module, "SharedProjectionIndex", exploding_index)
        service = QueryService(BIB_DTD_STRONG)
        for spec in queries_for_workload("bib")[:3]:
            service.register(spec.xquery, key=spec.key)
        with pytest.raises(RuntimeError):
            service.open_pass()
        assert len(started) == 3
        assert all(session._generator is None for session in started)
        assert service.active_pass is None

    def test_feed_and_finish_after_abort_raise_value_error(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        shared_pass = service.open_pass()
        shared_pass.feed(PAPER_DOCUMENT[:40])
        shared_pass.abort()
        assert shared_pass.aborted
        with pytest.raises(ValueError):
            shared_pass.feed(PAPER_DOCUMENT[40:])
        with pytest.raises(ValueError):
            shared_pass.finish()

    def test_context_manager_respects_manual_abort(self):
        # Regression: __exit__ after a clean block used to call finish(),
        # which walked into the aborted (dead) sessions.
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        with service.open_pass() as shared_pass:
            shared_pass.feed("<bib>")
            shared_pass.abort()
        assert shared_pass.aborted
        assert service.metrics.passes_completed == 0
        # The service is still serviceable afterwards.
        assert service.run_pass(PAPER_DOCUMENT)["q3"].output

    def test_abort_then_fresh_pass(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        doomed = service.open_pass()
        doomed.feed("<bib>")
        doomed.abort()
        results = service.run_pass(PAPER_DOCUMENT)
        solo = FluxEngine(PAPER_FIGURE1_DTD).execute(PAPER_Q3, PAPER_DOCUMENT)
        assert results["q3"].output == solo.output


class TestRegistrationMetrics:
    def test_replacement_keeps_live_query_invariant(self):
        service = QueryService(BIB_DTD_STRONG)
        service.register(get_query("BIB-Q1").xquery, key="a")
        service.register(get_query("BIB-Q2").xquery, key="b")
        service.register(get_query("BIB-Q3").xquery, key="a")  # replaces
        service.unregister("b")
        metrics = service.metrics
        assert metrics.queries_registered == 3
        assert metrics.queries_replaced == 1
        assert metrics.queries_unregistered == 1
        assert (
            metrics.queries_registered
            - metrics.queries_unregistered
            - metrics.queries_replaced
            == len(service)
        )

    def test_open_pass_holds_a_registration_snapshot(self, bib_document):
        # Documented semantics: replacing a key mid-pass does not change
        # the pass already opened.
        service = QueryService(BIB_DTD_STRONG)
        service.register(get_query("BIB-Q1").xquery, key="q")
        solo = FluxEngine(BIB_DTD_STRONG).execute(
            get_query("BIB-Q1").xquery, bib_document
        )
        shared_pass = service.open_pass()
        service.register(get_query("BIB-Q2").xquery, key="q")  # replace mid-pass
        shared_pass.feed(bib_document)
        results = shared_pass.finish()
        assert results["q"].output == solo.output


class TestFleetGroupRouting:
    """Aliased fleets route per structure group, answer per subscriber."""

    def test_aliases_share_group_tallies_and_match_solo(
        self, bib_document, bib_solo
    ):
        from repro.bench.fleets import make_fleet, run_shared

        specs = queries_for_workload("bib")[:3]
        fleet = make_fleet([spec.xquery for spec in specs], 9)
        shared, service = run_shared(fleet, bib_document, dtd=BIB_DTD_STRONG)
        metrics = service.metrics.last_pass
        assert metrics.structures == 3
        # Every subscriber gets its own counter entry, and aliases of one
        # structure carry identical tallies (they expand from one group).
        assert set(metrics.per_query_forwarded) == {q.key for q in fleet}
        for query in fleet:
            group_lead = fleet[query.structure]
            assert (
                metrics.per_query_forwarded[query.key]
                == metrics.per_query_forwarded[group_lead.key]
            )
            assert (
                metrics.per_query_pruned[query.key]
                == metrics.per_query_pruned[group_lead.key]
            )
            # ...and its output is byte-identical to the solo run of the
            # structure's base query.
            assert shared[query.key] == bib_solo[specs[query.structure].key]


class TestLoopSourceRouting:
    """The routing trie of a loop variable bound to attributes or text.

    A group is routed the needed view of its plan's read trie
    (``PlanProfile.needed``), which the buffers are projected by too.  A
    variable bound to an attribute path is routed like the attribute path
    itself: its element is a spine node, so the element's content is
    pruned.  A loop over ``text()`` keeps the element's text even when the
    body never reads the variable, since the number of iterations depends
    on it.
    """

    BY_ATTRIBUTE = (
        "<r>{ for $b in $ROOT/bib/book return "
        "for $y in $b/@year return <y>{ $y }</y> }</r>"
    )
    BY_PATH = "<r>{ for $b in $ROOT/bib/book return <y>{ $b/@year }</y> }</r>"
    OVER_TEXT = (
        "<r>{ for $b in $ROOT/bib/book return "
        "for $t in $b/title/text() return <t/> }</r>"
    )
    OTHER = "<r>{ for $b in $ROOT/bib/book return $b/price }</r>"

    @staticmethod
    def _trie(text):
        from repro.core.optimizer import OptimizerPipeline
        from repro.runtime.compiler import compile_query
        from repro.service.dispatcher import PlanProfile

        entry = compile_query(text, pipeline=OptimizerPipeline(BIB_DTD_STRONG))
        return PlanProfile(entry).needed

    def test_attribute_binding_keeps_only_the_spine(self):
        spine = {"bib": {"book": {}}}
        assert self._trie(self.BY_ATTRIBUTE) == spine
        assert self._trie(self.BY_PATH) == spine

    def test_text_loop_keeps_the_element_text(self):
        assert self._trie(self.OVER_TEXT) == {"bib": {"book": {"title": None}}}

    @pytest.mark.parametrize("face", FACES)
    def test_served_like_solo_with_attribute_routing(self, bib_document, face):
        queries = [
            ("attr", self.BY_ATTRIBUTE),
            ("path", self.BY_PATH),
            ("text", self.OVER_TEXT),
            ("other", self.OTHER),
        ]
        outputs, forwarded = _run_face(face, BIB_DTD_STRONG, queries, [bib_document])
        engine = FluxEngine(BIB_DTD_STRONG)
        for key, text in queries:
            assert outputs[key] == engine.execute(text, bib_document).output, key
        assert outputs["text"].count("<t>") == bib_document.count("<title>")
        # The attribute binding sees what the attribute path sees: book
        # start and end tags, none of the books' content.
        assert forwarded["attr"] == forwarded["path"] < forwarded["other"]


def _by_path(events):
    """``Counter`` of ``(event kind, element path)`` over a well-formed stream."""
    path, seen = [], Counter()
    for event in events:
        kind = type(event)
        if kind is StartElement:
            path.append(event.name)
        key = tuple(path) + ((event.name,) if kind is SkippedSubtree else ())
        seen[kind.__name__, key] += 1
        if kind is EndElement:
            path.pop()
    return seen


class TestReadTrieRouting:
    """Each group is routed only what its own solo skip-trie parse delivers,
    plus the tags of children its solo parse skips, which reach it for rule
    (c) (their parent carries its on-first condition) or as the root."""

    FLEET = [(BIB_DTD_STRONG, spec) for spec in queries_for_workload("bib")] + [
        (AUCTION_DTD, spec) for spec in queries_for_workload("auction")
    ]
    DOCUMENTS = [
        generate_bibliography(num_books=60, seed=1000),
        generate_auction_site(scale=0.1, seed=1000),
    ]

    @classmethod
    def _routed(cls, document):
        entries = [FluxEngine(dtd).compile(spec.xquery) for dtd, spec in cls.FLEET]
        index = SharedProjectionIndex([PlanProfile(entry) for entry in entries])
        routed = [[] for _ in entries]
        for event in StreamingXMLParser(document, skip=index.skip_trie()).events():
            mask = index.route(event)
            for i, events in enumerate(routed):
                if mask >> i & 1:
                    events.append(event)
        return zip(entries, routed)

    @pytest.mark.parametrize("document", range(len(DOCUMENTS)))
    def test_no_group_is_routed_more_than_its_solo_parse(self, document):
        text = self.DOCUMENTS[document]
        for (_, spec), (entry, routed) in zip(self.FLEET, self._routed(text)):
            solo = _by_path(StreamingXMLParser(text, skip=entry.plan.skip_trie()).events())
            skipped = {path for kind, path in solo if kind == "SkippedSubtree"}
            tags = ("StartElement", "EndElement")
            routed_paths = _by_path(routed)
            non_edge = Counter(
                {
                    (kind, path): count
                    for (kind, path), count in routed_paths.items()
                    if not (kind in tags and path in skipped)
                }
            )
            assert not non_edge - solo, spec.key
            assert sum(non_edge.values()) <= sum(solo.values()), spec.key

    def test_a_plan_that_reads_nothing_gets_only_the_root(self):
        for document in self.DOCUMENTS:
            keys = [spec.key for _, spec in self.FLEET]
            routed = {key: events for key, (_, events) in zip(keys, self._routed(document))}
            assert len(routed["BIB-Q6"]) <= 4

    def test_an_unregistered_plan_is_not_kept_alive(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        service.register(get_query("BIB-Q1").xquery, key="kept")
        service.register(get_query("BIB-Q2").xquery, key="retired")
        retired = weakref.ref(service.registrations["retired"].entry.plan)
        service.run_pass(bib_document)
        service.unregister("retired")
        service.plan_cache.clear()
        service.run_pass(bib_document)
        gc.collect()
        assert retired() is None
