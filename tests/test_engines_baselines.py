"""Unit tests for the DOM and projection baseline engines."""

import pytest

from repro.engines.dom_engine import DomEngine
from repro.engines.projection_engine import ProjectionEngine, projection_paths
from repro.xquery.parser import parse_xquery
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import get_query


class TestDomEngine:
    def test_output_matches_reference_semantics(self, paper_document, paper_q3):
        result = DomEngine().execute(paper_q3, paper_document)
        assert result.output.startswith("<results>")
        assert result.output.count("<result>") == 3

    def test_peak_memory_is_whole_document(self, paper_document, paper_q3):
        result = DomEngine().execute(paper_q3, paper_document)
        # The accounting includes per-node overheads, so the tree estimate is
        # in the same ballpark as (and not smaller than half of) the text.
        assert result.peak_buffer_bytes > len(paper_document) // 2

    def test_memory_is_query_independent(self, paper_document):
        titles = DomEngine().execute("<t>{ $ROOT/bib/book/title }</t>", paper_document)
        everything = DomEngine().execute("<t>{ $ROOT/bib/book }</t>", paper_document)
        assert titles.peak_buffer_bytes == everything.peak_buffer_bytes

    def test_optional_validation(self, paper_dtd, paper_weak_document, paper_q3):
        from repro.errors import XMLValidationError

        engine = DomEngine(paper_dtd, validate=True)
        with pytest.raises(XMLValidationError):
            engine.execute(paper_q3, paper_weak_document)

    def test_atomic_results_are_escaped(self):
        result = DomEngine().execute("$ROOT/a/text()", "<a>x &lt; y</a>")
        assert result.output == "x &lt; y"


class TestProjectionPaths:
    def test_q3_projection_keeps_title_and_author_subtrees(self, paper_q3):
        tree = projection_paths(parse_xquery(paper_q3))
        paths = dict(tree.paths())
        assert paths[("bib",)] is False
        assert paths[("bib", "book")] is False
        assert paths[("bib", "book", "title")] is True
        assert paths[("bib", "book", "author")] is True
        assert ("bib", "book", "price") not in paths

    def test_loop_spine_not_kept(self):
        tree = projection_paths(parse_xquery("for $b in $ROOT/bib/book return $b/@year"))
        paths = dict(tree.paths())
        assert paths[("bib", "book")] is False

    def test_returned_variable_keeps_subtree(self):
        tree = projection_paths(parse_xquery("for $b in $ROOT/bib/book return $b"))
        assert dict(tree.paths())[("bib", "book")] is True

    def test_condition_paths_kept(self):
        tree = projection_paths(
            parse_xquery("for $b in $ROOT/bib/book where $b/price > 3 return $b/@year")
        )
        assert dict(tree.paths())[("bib", "book", "price")] is True

    def test_descendant_step_keeps_subtree(self):
        tree = projection_paths(parse_xquery("<x>{ $ROOT//author }</x>"))
        assert tree.keep_subtree or any(keep for _, keep in tree.paths())


class TestProjectionEngine:
    def test_output_matches_dom(self, paper_document, paper_q3):
        dom = DomEngine().execute(paper_q3, paper_document)
        projected = ProjectionEngine().execute(paper_q3, paper_document)
        assert dom.output == projected.output

    def test_memory_between_flux_and_dom(self, small_bibliography):
        from repro.engines.flux_engine import FluxEngine

        spec = get_query("BIB-Q3")
        flux = FluxEngine(BIB_DTD_STRONG).execute(spec.xquery, small_bibliography)
        projected = ProjectionEngine(BIB_DTD_STRONG).execute(spec.xquery, small_bibliography)
        dom = DomEngine(BIB_DTD_STRONG).execute(spec.xquery, small_bibliography)
        assert flux.peak_buffer_bytes < projected.peak_buffer_bytes < dom.peak_buffer_bytes

    def test_projection_depends_on_query(self, paper_document):
        title_only = ProjectionEngine().execute(
            "<t>{ $ROOT/bib/book/title }</t>", paper_document
        )
        whole_books = ProjectionEngine().execute(
            "<t>{ $ROOT/bib/book }</t>", paper_document
        )
        assert title_only.peak_buffer_bytes < whole_books.peak_buffer_bytes

    def test_attribute_only_query_projects_spine(self, paper_document):
        result = ProjectionEngine().execute(
            "<years>{ for $b in $ROOT/bib/book return $b/@year }</years>", paper_document
        )
        assert result.output == "<years>1994 2000 1999</years>"
        assert result.peak_buffer_bytes < len(paper_document) // 2

    @pytest.mark.parametrize(
        "query",
        [
            "<r>{ for $t in $ROOT/bib/book/title/text() return <x/> }</r>",
            "<r>{ for $y in $ROOT/bib/book/@year return <x>{ $y }</x> }</r>",
        ],
    )
    def test_loops_over_text_and_attributes_match_dom(self, paper_document, query):
        # A loop over text() nodes needs the text: it was once projected
        # away, and the loop then ran zero times.
        projected = ProjectionEngine().execute(query, paper_document)
        assert projected.output == DomEngine().execute(query, paper_document).output
        assert projected.output.count("<x>") == 3

    def test_query_not_touching_document(self, paper_document):
        result = ProjectionEngine().execute("<hello/>", paper_document)
        assert result.output == "<hello></hello>"
