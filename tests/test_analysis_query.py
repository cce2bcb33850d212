"""Tests for the static query analyzer (``repro.analysis.query``).

Covers the three layers: buffer-bound classification against the paper's
strong/weak Figure 1 DTDs, the cardinality/cost model (including its
calibration from persisted pass observations), and the serving-mode
policy.  The soundness property the classes promise — a ``CONST`` plan's
peak buffer does not grow with the document — is checked by actually
running documents of increasing size through the engine.
"""

import pytest

from repro.analysis.query import (
    CONST,
    DOC,
    FANOUT,
    CostEstimate,
    apply_observations,
    classify_plan,
    estimate_cost,
    explain_compiled,
    select_mode,
    static_cost,
)
from repro.core.optimizer import OptimizerPipeline
from repro.dtd.model import INFINITY
from repro.engines.flux_engine import FluxEngine
from repro.runtime.compiler import compile_query
from repro.runtime.plan_cache import PlanObservations
from tests.conftest import PAPER_Q3

# Emits price before title: under the strong DTD title *arrives* first and
# must be held until the price is written — exactly one buffered <title>
# per book, the canonical CONST case.
SWAP_QUERY = """
for $book in $ROOT/bib/book
return <entry>{ $book/price }{ $book/title }</entry>
"""


def compiled(query, dtd):
    return compile_query(query, pipeline=OptimizerPipeline(dtd))


class TestClassifyPlan:
    def test_strong_dtd_q3_is_fully_streaming(self, paper_dtd):
        analysis = classify_plan(compiled(PAPER_Q3, paper_dtd).plan)
        assert not analysis.handlers
        assert analysis.plan_class is None
        assert analysis.max_degree == 0.0

    def test_weak_dtd_q3_buffers_fanout(self, paper_weak_dtd):
        analysis = classify_plan(compiled(PAPER_Q3, paper_weak_dtd).plan)
        assert analysis.plan_class == FANOUT
        (handler,) = analysis.handlers
        assert handler.buffer_class == FANOUT
        assert handler.degree == 1.0
        # The unbounded axis is author-under-book (the weak DTD repeats it).
        assert [(a.element_type, a.label) for a in handler.axes] == [("book", "author")]
        assert handler.axes[0].max_count == INFINITY

    def test_no_dtd_is_doc_class(self):
        analysis = classify_plan(compiled(PAPER_Q3, None).plan)
        assert analysis.plan_class == DOC
        assert analysis.max_degree == INFINITY
        assert any("no DTD" in reason for h in analysis.handlers for reason in h.reasons)

    def test_order_violation_under_strong_dtd_is_const(self, paper_dtd):
        analysis = classify_plan(compiled(SWAP_QUERY, paper_dtd).plan)
        assert analysis.plan_class == CONST
        (handler,) = analysis.handlers
        assert handler.buffer_class == CONST
        assert handler.degree == 0.0
        # Exactly one title per book: every axis statically bounded.
        assert all(axis.max_count < INFINITY for axis in handler.axes)

    def test_handlers_carry_plan_paths(self, paper_weak_dtd):
        analysis = classify_plan(compiled(PAPER_Q3, paper_weak_dtd).plan)
        for handler in analysis.handlers:
            assert handler.path.startswith("0")
            assert analysis.by_path()[handler.path] is handler


def make_bib(num_books, title="A Fixed-Width Title", authors=1):
    """A Figure-1-valid document of ``num_books`` identical books."""
    book = (
        f"<book><title>{title}</title>"
        + "<author>Stevens</author>" * authors
        + "<publisher>P</publisher><price>9.99</price></book>"
    )
    return "<bib>" + book * num_books + "</bib>"


class TestConstSoundness:
    def test_const_peak_buffer_flat_as_document_grows(self, paper_dtd):
        """The CONST promise: per-pass peak buffer independent of size.

        Books are identical, so a truly per-instance-bounded buffer peaks
        at exactly the same byte count whether the document holds 5 books
        or 200 — any growth with the document would falsify the class.
        """
        engine = FluxEngine(paper_dtd)
        analysis = classify_plan(engine.compile(SWAP_QUERY).plan)
        assert analysis.plan_class == CONST
        peaks = [
            engine.execute(SWAP_QUERY, make_bib(n)).peak_buffer_bytes for n in (5, 50, 200)
        ]
        assert peaks[0] > 0  # something was actually buffered
        assert peaks[0] == peaks[1] == peaks[2]

    def test_fanout_peak_buffer_grows_with_fanout(self, paper_dtd):
        """Contrast: a FANOUT plan's buffer tracks the repeated axis.

        Publisher is emitted first but arrives *after* the authors, so
        every author of a book is buffered until its publisher streams by
        — an unbounded (``author+``) axis, and the byte peak shows it.
        """
        query = """
        for $book in $ROOT/bib/book
        return <entry>{ $book/publisher }{ $book/author }</entry>
        """
        engine = FluxEngine(paper_dtd)
        few = engine.execute(query, make_bib(40, authors=1))
        many = engine.execute(query, make_bib(40, authors=8))
        assert many.peak_buffer_bytes > few.peak_buffer_bytes


class TestCostModel:
    def test_streaming_plan_scores_below_buffered_plan(self, paper_dtd, paper_weak_dtd):
        streaming = estimate_cost(compiled(PAPER_Q3, paper_dtd))
        buffered = estimate_cost(compiled(PAPER_Q3, paper_weak_dtd))
        assert streaming.score > 0
        assert buffered.items_buffered > streaming.items_buffered
        assert buffered.score > streaming.score

    def test_no_dtd_scores_worst(self, paper_weak_dtd):
        weak = estimate_cost(compiled(PAPER_Q3, paper_weak_dtd))
        blind = estimate_cost(compiled(PAPER_Q3, None))
        assert blind.score > weak.score

    def test_static_cost_is_memoized_on_the_entry(self, paper_dtd):
        entry = compiled(PAPER_Q3, paper_dtd)
        score = static_cost(entry)
        assert score == estimate_cost(entry).score
        assert entry.__dict__["_static_cost"] == score
        assert static_cost(entry) == score

    def test_apply_observations_recalibrates_events(self, paper_dtd):
        estimate = estimate_cost(compiled(PAPER_Q3, paper_dtd))
        observed = PlanObservations()
        observed.record(events_routed=estimate.events_routed * 10, document_bytes=1000.0,
                        elapsed_seconds=0.1)
        calibrated = apply_observations(estimate, observed)
        assert calibrated.observed_passes == 1
        assert calibrated.events_routed == pytest.approx(estimate.events_routed * 10)
        assert calibrated.score > estimate.score

    def test_apply_observations_without_data_is_identity(self, paper_dtd):
        estimate = estimate_cost(compiled(PAPER_Q3, paper_dtd))
        assert apply_observations(estimate, None) is estimate
        assert apply_observations(estimate, PlanObservations()) is estimate


def _cost(per_event=2.0):
    return CostEstimate(
        events_routed=100.0,
        items_buffered=10.0,
        per_event_cost=per_event,
        document_events=100.0,
        score=100.0 * per_event,
    )


class TestModePolicy:
    def test_single_document_stays_unpooled(self):
        decision = select_mode([_cost()], document_bytes=1 << 20, document_count=1, cpu_count=8)
        assert decision.workers is None
        assert not decision.pooled

    def test_single_core_stays_unpooled(self):
        decision = select_mode([_cost()], document_bytes=1 << 24, document_count=50, cpu_count=1)
        assert decision.workers is None

    def test_light_fleet_skips_the_pool(self):
        decision = select_mode([_cost(0.001)], document_bytes=1 << 10, document_count=4,
                               cpu_count=8)
        assert decision.workers is None

    def test_heavy_fleet_goes_to_processes(self):
        decision = select_mode([_cost(100.0)] * 10, document_bytes=1 << 24, document_count=16,
                               cpu_count=8)
        assert decision.backend == "processes"
        assert decision.pooled
        assert 1 <= decision.workers <= 8

    def test_middling_fleet_uses_thread_pool(self):
        decision = select_mode([_cost(2.0)], document_bytes=1 << 20, document_count=4, cpu_count=8)
        assert decision.backend == "threads"
        assert decision.pooled
        assert 1 <= decision.workers <= 4

    def test_describe_and_reasons(self):
        decision = select_mode([_cost()], document_count=1, cpu_count=8)
        assert decision.describe() == "backend=threads workers=none"
        assert decision.reasons


class TestExplainReport:
    def test_report_sections_and_classes(self, paper_weak_dtd):
        report = explain_compiled(compiled(PAPER_Q3, paper_weak_dtd))
        assert "== Plan DAG ==" in report
        assert "== Buffer bounds ==" in report
        assert "== Static cost ==" in report
        assert "== Execution mode ==" in report
        assert "FANOUT" in report
        assert "predicted score" in report
        assert "chosen:" in report

    def test_join_is_named_under_its_buffered_eval_node(self):
        from repro.workloads import get_query
        from repro.workloads.dtds import AUCTION_DTD

        entry = compiled(get_query("AUC-A3").xquery, AUCTION_DTD)
        lines = explain_compiled(entry).splitlines()
        (at,) = [i for i, line in enumerate(lines) if line.lstrip().startswith("buffered-eval ")]
        indent = len(lines[at]) - len(lines[at].lstrip())
        assert lines[at + 1] == " " * (indent + 2) + "hash-join build $c/buyer/@person probe $p/@id"
        # Printed by the recogniser the runtime runs, not by a second one.
        (join,) = [j for lowered in entry.plan.lowered().values() for j in lowered.joins]
        assert lines[at + 1].strip() == join.describe()
        assert "hash-join" not in explain_compiled(compiled(PAPER_Q3, None))

    def test_streaming_report_says_so(self, paper_dtd):
        report = explain_compiled(compiled(PAPER_Q3, paper_dtd))
        assert "fully streaming: no buffered handlers" in report

    def test_observations_are_reported(self, paper_dtd):
        observed = PlanObservations()
        observed.record(events_routed=42.0, document_bytes=100.0, elapsed_seconds=0.01)
        report = explain_compiled(compiled(PAPER_Q3, paper_dtd), observations=observed)
        assert "calibrated from 1 observed pass(es)" in report
