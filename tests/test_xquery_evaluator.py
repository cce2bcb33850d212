"""Unit tests for the reference tree evaluator."""

import pytest

from repro.errors import EvaluationError
from repro.xmlstream.serializer import serialize_tree
from repro.xmlstream.tree import parse_tree
from repro.xquery.evaluator import (
    TreeEvaluator,
    compare_atomic,
    effective_boolean_value,
    evaluate_query_on_tree,
    make_document_node,
    string_value,
)
from repro.xquery.parser import parse_xquery


@pytest.fixture
def bib_tree(paper_document):
    return parse_tree(paper_document)


def run(query, tree):
    return evaluate_query_on_tree(parse_xquery(query), tree)


def as_xml(items):
    return "".join(
        serialize_tree(item) if hasattr(item, "tag") else string_value(item) for item in items
    )


class TestPathEvaluation:
    def test_child_steps(self, bib_tree):
        items = run("$ROOT/bib/book/title", bib_tree)
        assert [item.string_value() for item in items] == [
            "TCP/IP Illustrated", "Data on the Web", "Digital Typography",
        ]

    def test_attribute_step(self, bib_tree):
        items = run("$ROOT/bib/book/@year", bib_tree)
        assert items == ["1994", "2000", "1999"]

    def test_text_step(self, bib_tree):
        items = run("$ROOT/bib/book/price/text()", bib_tree)
        assert items == ["65.95", "39.95", "50.00"]

    def test_descendant_step(self, bib_tree):
        items = run("$ROOT//author", bib_tree)
        assert len(items) == 4

    def test_wildcard_step(self, bib_tree):
        items = run("$ROOT/bib/book/*", bib_tree)
        assert len(items) == 14

    def test_missing_path_is_empty(self, bib_tree):
        assert run("$ROOT/bib/book/isbn", bib_tree) == []

    def test_unbound_variable_raises(self, bib_tree):
        with pytest.raises(EvaluationError):
            run("$nope/title", bib_tree)


class TestFLWREvaluation:
    def test_for_loop(self, bib_tree):
        items = run("for $b in $ROOT/bib/book return $b/title", bib_tree)
        assert len(items) == 3

    def test_for_with_where(self, bib_tree):
        items = run(
            "for $b in $ROOT/bib/book where $b/price > 50 return $b/title", bib_tree
        )
        assert [i.string_value() for i in items] == ["TCP/IP Illustrated"]

    def test_attribute_where(self, bib_tree):
        items = run(
            'for $b in $ROOT/bib/book where $b/@year = "2000" return $b/title', bib_tree
        )
        assert [i.string_value() for i in items] == ["Data on the Web"]

    def test_nested_loops_form_pairs(self, bib_tree):
        items = run(
            "for $b in $ROOT/bib/book return for $a in $b/author return $a", bib_tree
        )
        assert len(items) == 4

    def test_join_between_branches(self, bib_tree):
        items = run(
            'for $b in $ROOT/bib/book '
            'for $c in $ROOT/bib/book '
            'where $b/publisher = $c/publisher and $b/@year < $c/@year '
            "return <pair>{ $b/title }{ $c/title }</pair>",
            bib_tree,
        )
        assert items == []  # distinct publishers in the fixture

    def test_let_binding(self, bib_tree):
        items = run("let $books := $ROOT/bib/book return $books/title", bib_tree)
        assert len(items) == 3


class TestConstructorsAndConditionals:
    def test_constructor_copies_nodes(self, bib_tree):
        items = run("<x>{ $ROOT/bib/book/title }</x>", bib_tree)
        assert as_xml(items) == (
            "<x><title>TCP/IP Illustrated</title><title>Data on the Web</title>"
            "<title>Digital Typography</title></x>"
        )

    def test_constructor_with_attributes(self, bib_tree):
        items = run('<x kind="list">{ "text" }</x>', bib_tree)
        assert as_xml(items) == '<x kind="list">text</x>'

    def test_atomic_values_space_separated(self, bib_tree):
        items = run('<x>{ ("a", "b") }</x>', bib_tree)
        assert as_xml(items) == "<x>a b</x>"

    def test_if_then_else(self, bib_tree):
        items = run(
            'if (exists($ROOT/bib/book/editor)) then "edited" else "plain"', bib_tree
        )
        assert items == ["edited"]

    def test_if_false_branch(self, bib_tree):
        items = run('if ($ROOT/bib/book/price > 1000) then "rich" else "ok"', bib_tree)
        assert items == ["ok"]

    def test_paper_q3_output(self, bib_tree, paper_q3):
        items = run(paper_q3, bib_tree)
        xml = as_xml(items)
        assert xml.startswith("<results><result><title>TCP/IP Illustrated</title>")
        assert "<author>Abiteboul</author><author>Buneman</author><author>Suciu</author>" in xml


class TestComparisonSemantics:
    def test_existential_comparison(self, bib_tree):
        # At least one author called Suciu.
        assert run('$ROOT/bib/book/author = "Suciu"', bib_tree) == [True]
        assert run('$ROOT/bib/book/author = "Nobody"', bib_tree) == [False]

    def test_numeric_coercion(self):
        assert compare_atomic("<", "9", "10")
        assert compare_atomic(">", 10, "9.5")
        assert compare_atomic("=", "1.0", 1)

    def test_string_comparison_when_not_numeric(self):
        assert compare_atomic("<", "abc", "abd")
        assert not compare_atomic("=", "abc", "ABC")

    @pytest.mark.parametrize(
        "left, right",
        [("1_0", "10"), ("infinity", "inf"), ("\uff11\uff12", "12"), ("+INF", "INF"), ("0x10", "16")],
    )
    def test_only_the_xs_double_lexical_space_is_numeric(self, left, right):
        # Python's float() grammar is wider than XQuery's: these are strings.
        assert not compare_atomic("=", left, right)
        assert compare_atomic("!=", left, right)

    @pytest.mark.parametrize(
        "left, right",
        [(" 7 ", "7.0"), ("1e2", "100"), ("-0", "0.0"), ("1.", "+1"), (".5", "0.5E0"),
         ("INF", " INF\n"), ("-INF", "-INF")],
    )
    def test_numerically_equal_spellings_are_equal(self, left, right):
        assert compare_atomic("=", left, right)

    def test_nan_is_a_number_and_nan_spelled_otherwise_is_a_string(self):
        assert not compare_atomic("=", "NaN", "NaN")
        assert compare_atomic("!=", "NaN", " NaN ")
        assert compare_atomic("=", "nan", "nan")
        assert not compare_atomic("=", "nan", "NaN")
        # Only XML whitespace is trimmed.
        assert not compare_atomic("=", "\u00a07", "7")

    def test_both_engines_join_on_the_same_number_grammar(self):
        from repro import FluxEngine
        from repro.engines.dom_engine import DomEngine

        dtd = (
            "<!ELEMENT db (a*, b*)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>"
        )
        query = (
            "<o>{ for $a in $ROOT/db/a return for $b in $ROOT/db/b "
            "where $a/text() = $b/text() return <m>{ $a }{ $b }</m> }</o>"
        )
        compiled = FluxEngine(dtd).compile(query)
        assert any(entry.joins for entry in compiled.plan.lowered().values())
        values = ["1_0", "10", "1e1", "infinity", "inf", "INF", "nan", "NaN", " 7 ", "7.0", "-0", "0.0"]
        sides = "".join(f"<a>{v}</a>" for v in values) + "".join(f"<b>{v}</b>" for v in values)
        flux = compiled.execute(f"<db>{sides}</db>").output
        assert flux == DomEngine(dtd).execute(query, f"<db>{sides}</db>").output
        pairs = {
            tuple(part.split("</a><b>"))
            for part in flux[len("<o><m><a>"):-len("</b></m></o>")].split("</b></m><m><a>")
        }
        equal = {("10", "1e1"), (" 7 ", "7.0"), ("-0", "0.0")}
        assert pairs == (
            {(v, v) for v in values if v != "NaN"} | equal | {(b, a) for a, b in equal}
        )

    def test_unsupported_operator_raises(self):
        with pytest.raises(EvaluationError):
            compare_atomic("~", 1, 2)

    def test_effective_boolean_value(self):
        assert not effective_boolean_value([])
        assert effective_boolean_value(["x"])
        assert not effective_boolean_value([""])
        assert not effective_boolean_value([0])
        assert effective_boolean_value([0, 1])  # multi-item sequences are true

    def test_functions(self, bib_tree):
        assert run("exists($ROOT/bib/book)", bib_tree) == [True]
        assert run("empty($ROOT/bib/journal)", bib_tree) == [True]
        assert run("string($ROOT/bib/book/price)", bib_tree)[0] == "65.95"
        assert run("true()", bib_tree) == [True]
        assert run("not(false())", bib_tree) == [True]


class TestDocumentNode:
    def test_make_document_node_wraps_root(self, bib_tree):
        doc = make_document_node(bib_tree)
        assert doc.tag == "#document"
        assert doc.child_elements("bib")[0] is bib_tree

    def test_string_value_formatting(self):
        assert string_value(3.0) == "3"
        assert string_value(3.5) == "3.5"
        assert string_value("x") == "x"
