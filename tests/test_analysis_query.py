"""Tests for the static query analyzer (``repro.analysis``).

Covers buffer-bound classification against the paper's strong/weak
Figure 1 DTDs and the ``repro explain`` report built on it.  The soundness
property the classes promise — a ``CONST`` plan's peak buffer does not
grow with the document — is checked by actually running documents of
increasing size through the engine.
"""

from repro.analysis import CONST, DOC, FANOUT, classify_plan, explain_compiled
from repro.core.optimizer import OptimizerPipeline
from repro.dtd.model import INFINITY
from repro.engines.flux_engine import FluxEngine
from repro.runtime.compiler import compile_query
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


class TestExplainReport:
    def test_report_sections_and_classes(self, paper_weak_dtd):
        report = explain_compiled(compiled(PAPER_Q3, paper_weak_dtd))
        assert "== Plan DAG ==" in report
        assert "== Buffer bounds ==" in report
        assert "FANOUT" in report
        # The analyzer reports buffer bounds only: no guessed cost score
        # or serving configuration derived from one.
        assert "== Static cost ==" not in report
        assert "== Execution mode ==" not in report

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
