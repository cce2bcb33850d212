"""Unit tests for DTD-derived schema constraints.

These constraints (cardinality, order, co-occurrence) are the information the
paper's optimizer runs on, so the tests follow the paper's own examples.
"""

import pytest

from repro.dtd.model import INFINITY
from repro.dtd.parser import parse_dtd


@pytest.fixture
def figure1(paper_dtd):
    return paper_dtd.constraints()


@pytest.fixture
def weak(paper_weak_dtd):
    return paper_weak_dtd.constraints()


class TestCardinalityConstraints:
    def test_publisher_at_most_once(self, figure1):
        # The paper's example: publisher ∈ ||≤1 book.
        assert figure1.at_most_once("book", "publisher")
        assert figure1.exactly_once("book", "publisher")

    def test_author_not_at_most_once(self, figure1):
        assert not figure1.at_most_once("book", "author")
        assert figure1.max_occurrences("book", "author") == INFINITY

    def test_title_exactly_once(self, figure1):
        assert figure1.exactly_once("book", "title")

    def test_author_min_zero_because_of_editor_branch(self, figure1):
        assert figure1.min_occurrences("book", "author") == 0

    def test_never_occurs(self, figure1):
        assert figure1.never_occurs("book", "chapter")
        assert not figure1.never_occurs("book", "author")

    def test_pcdata_elements_have_no_children(self, figure1):
        assert figure1.never_occurs("title", "anything")

    def test_weak_dtd_title_unbounded(self, weak):
        assert not weak.at_most_once("book", "title")

    def test_unknown_parent_is_unconstrained(self, figure1):
        assert figure1.max_occurrences("unknown-element", "x") == INFINITY
        assert not figure1.at_most_once("unknown-element", "x")

    def test_any_parent_is_unconstrained(self):
        # ANY content admits every child any number of times; it used to
        # read as "no element children" because ANY also allows text.
        constraints = parse_dtd("<!ELEMENT a ANY>\n<!ELEMENT b (#PCDATA)>").constraints()
        assert constraints.max_occurrences("a", "b") == INFINITY
        assert not constraints.at_most_once("a", "b")
        assert not constraints.never_occurs("a", "b")

    def test_any_parent_children_are_not_optimized_away(self):
        from repro import DomEngine, FluxEngine
        from repro.errors import UnsafeFluxQueryError

        dtd = parse_dtd("<!ELEMENT a ANY>\n<!ELEMENT b (#PCDATA)>")
        query = "<r>{ for $x in $ROOT/a return if (exists($x/b)) then <yes/> else <no/> }</r>"
        document = "<a><b>1</b></a>"
        expected = DomEngine(dtd).execute(query, document).output
        assert expected == "<r><yes></yes></r>"
        try:
            output = FluxEngine(dtd).execute(query, document).output
        except UnsafeFluxQueryError:
            return  # refusing the plan is sound; answering <no/> was not
        assert output == expected


class TestOrderConstraints:
    def test_title_before_author(self, figure1):
        # Figure 1 "ensures that all title elements precede all author elements".
        assert figure1.order_holds("book", "title", "author")

    def test_author_not_before_title(self, figure1):
        assert not figure1.order_holds("book", "author", "title")

    def test_author_before_price_and_publisher(self, figure1):
        assert figure1.order_holds("book", "author", "price")
        assert figure1.order_holds("book", "author", "publisher")
        assert figure1.order_holds("book", "publisher", "price")

    def test_same_label_order_requires_at_most_once(self, figure1):
        assert figure1.order_holds("book", "publisher", "publisher")
        assert not figure1.order_holds("book", "author", "author")

    def test_weak_dtd_has_no_order(self, weak):
        assert not weak.order_holds("book", "title", "author")
        assert not weak.order_holds("book", "author", "title")

    def test_labels_that_cannot_occur_trivially_ordered(self, figure1):
        assert figure1.order_holds("book", "chapter", "author")
        assert figure1.order_holds("book", "title", "chapter")

    def test_all_before_helper(self, figure1):
        assert figure1.all_before("book", ["title", "author"], "price")
        assert not figure1.all_before("book", ["price"], "title")

    def test_order_constraints_on_books_within_bib(self, figure1):
        # Multiple book children: book before book fails (repetition).
        assert not figure1.order_holds("bib", "book", "book")


class TestCoOccurrenceConstraints:
    def test_author_editor_mutually_exclusive(self, figure1):
        # The paper: a book cannot have both author and editor children.
        assert figure1.mutually_exclusive("book", "author", "editor")
        assert figure1.mutually_exclusive("book", "editor", "author")

    def test_author_price_can_cooccur(self, figure1):
        assert not figure1.mutually_exclusive("book", "author", "price")
        assert figure1.can_cooccur("book", ["author", "price"])

    def test_can_cooccur_with_three_labels(self, figure1):
        assert figure1.can_cooccur("book", ["title", "publisher", "price"])
        assert not figure1.can_cooccur("book", ["title", "author", "editor"])

    def test_label_that_never_occurs_cannot_cooccur(self, figure1):
        assert not figure1.can_cooccur("book", ["title", "chapter"])

    def test_empty_label_set_cooccurs(self, figure1):
        assert figure1.can_cooccur("book", [])

    def test_weak_paper_dtd_without_editor(self, weak):
        # The Section 2 weak DTD has no editor at all.
        assert weak.mutually_exclusive("book", "author", "editor")


class TestSummary:
    def test_summary_contains_paper_constraints(self, paper_dtd):
        summary = paper_dtd.constraints().summary("book")
        assert ("publisher", "<=1") in summary["cardinality"]
        assert ("title", "<", "author") in summary["order"]
        assert ("author", "#", "editor") in summary["exclusive"]
