"""Unit tests for the XQuery parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.dom_engine import DomEngine
from repro.engines.flux_engine import FluxEngine
from repro.errors import UnsupportedFeatureError, XQuerySyntaxError
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.xquery.ast import (
    AndExpr,
    AttributeStep,
    ChildStep,
    Comparison,
    DescendantStep,
    ElementConstructor,
    EmptySequence,
    ForExpr,
    FunctionCall,
    IfExpr,
    LetExpr,
    Literal,
    NotExpr,
    OrExpr,
    PathExpr,
    SequenceExpr,
    TextStep,
    VarRef,
    sequence_of,
)
from repro.xquery.parser import parse_xquery


class TestPaths:
    def test_simple_variable(self):
        assert parse_xquery("$x") == VarRef("x")

    def test_child_path(self):
        expr = parse_xquery("$b/title")
        assert expr == PathExpr("b", (ChildStep("title"),))

    def test_multi_step_path(self):
        expr = parse_xquery("$ROOT/bib/book/title")
        assert [s.name for s in expr.steps] == ["bib", "book", "title"]

    def test_attribute_step(self):
        expr = parse_xquery("$b/@year")
        assert expr.steps == (AttributeStep("year"),)

    def test_text_step(self):
        expr = parse_xquery("$b/title/text()")
        assert expr.steps[-1] == TextStep()

    def test_descendant_step(self):
        expr = parse_xquery("$b//author")
        assert expr.steps == (DescendantStep("author"),)

    def test_wildcard_step(self):
        expr = parse_xquery("$b/*")
        assert expr.steps == (ChildStep("*"),)

    def test_absolute_path_uses_document_variable(self):
        expr = parse_xquery("/bib/book")
        assert expr.var == "ROOT"
        assert [s.name for s in expr.steps] == ["bib", "book"]

    def test_doc_function_is_document_variable(self):
        expr = parse_xquery('doc("bib.xml")/bib')
        assert isinstance(expr, PathExpr)
        assert expr.var == "ROOT"


class TestFLWR:
    def test_simple_for(self):
        expr = parse_xquery("for $b in $ROOT/bib/book return $b/title")
        assert isinstance(expr, ForExpr)
        assert expr.var == "b"
        assert expr.where is None
        assert isinstance(expr.body, PathExpr)

    def test_for_with_where(self):
        expr = parse_xquery("for $b in $ROOT/bib/book where $b/price > 50 return $b/title")
        assert isinstance(expr.where, Comparison)
        assert expr.where.op == ">"

    def test_multiple_for_bindings_nest(self):
        expr = parse_xquery("for $a in $x/p, $b in $a/q return $b")
        assert isinstance(expr, ForExpr)
        assert isinstance(expr.body, ForExpr)
        assert expr.var == "a"
        assert expr.body.var == "b"

    def test_where_attaches_to_innermost_binding(self):
        expr = parse_xquery("for $a in $x/p, $b in $a/q where $b = $a return $b")
        assert expr.where is None
        assert expr.body.where is not None

    def test_let_binding(self):
        expr = parse_xquery("let $t := $b/title return <x>{ $t }</x>")
        assert isinstance(expr, LetExpr)
        assert expr.var == "t"

    def test_nested_for_in_return(self):
        expr = parse_xquery(
            "for $b in $x/book return for $a in $b/author return $a"
        )
        assert isinstance(expr.body, ForExpr)


class TestConditionsAndOperators:
    def test_if_then_else(self):
        expr = parse_xquery('if ($x/a = "1") then $x/b else ()')
        assert isinstance(expr, IfExpr)
        assert isinstance(expr.else_branch, EmptySequence)

    def test_and_or_precedence(self):
        expr = parse_xquery("$x/a = 1 and $x/b = 2 or $x/c = 3")
        assert isinstance(expr, OrExpr)
        assert isinstance(expr.operands[0], AndExpr)

    @pytest.mark.parametrize(
        "query,op",
        [
            ("$x/a = 1", "="),
            ("$x/a != 1", "!="),
            ("$x/a < 1", "<"),
            ("$x/a <= 1", "<="),
            ("$x/a > 1", ">"),
            ("$x/a >= 1", ">="),
            ("$x/a eq 1", "="),
            ("$x/a lt 1", "<"),
            ("$x/a ge 1", ">="),
        ],
    )
    def test_comparison_operators(self, query, op):
        expr = parse_xquery(query)
        assert isinstance(expr, Comparison)
        assert expr.op == op

    def test_not_function(self):
        expr = parse_xquery("not($x/a)")
        assert isinstance(expr, NotExpr)

    def test_exists_function(self):
        expr = parse_xquery("exists($x/editor)")
        assert isinstance(expr, FunctionCall)
        assert expr.name == "exists"

    def test_string_literals_with_escaped_quote(self):
        expr = parse_xquery('"say ""hi"""')
        assert expr == Literal('say "hi"')

    def test_numeric_literals(self):
        assert parse_xquery("1991") == Literal(1991)
        assert parse_xquery("3.14") == Literal(3.14)

    def test_comments_are_skipped(self):
        expr = parse_xquery("(: comment :) $x (: another :)")
        assert expr == VarRef("x")


class TestConstructors:
    def test_empty_element(self):
        expr = parse_xquery("<a/>")
        assert expr == ElementConstructor("a", (), EmptySequence())

    def test_element_with_literal_attributes(self):
        expr = parse_xquery('<a x="1" y="two"/>')
        assert expr.attributes == (("x", "1"), ("y", "two"))

    def test_element_with_text_content(self):
        expr = parse_xquery("<a>hello</a>")
        assert expr.content == Literal("hello")

    def test_element_with_enclosed_expression(self):
        expr = parse_xquery("<a>{ $x/b }</a>")
        assert isinstance(expr.content, PathExpr)

    def test_nested_constructors(self):
        expr = parse_xquery("<a><b>{ $x }</b><c/></a>")
        assert isinstance(expr.content, SequenceExpr)
        assert all(isinstance(item, ElementConstructor) for item in expr.content.items)

    def test_mixed_text_and_expressions(self):
        expr = parse_xquery("<a>count: { $x/n } items</a>")
        items = expr.content.items
        assert isinstance(items[0], Literal)
        assert isinstance(items[1], PathExpr)
        assert isinstance(items[2], Literal)

    def test_paper_q3_parses(self, paper_q3):
        expr = parse_xquery(paper_q3)
        assert isinstance(expr, ElementConstructor)
        assert expr.name == "results"
        assert isinstance(expr.content, ForExpr)

    def test_mismatched_closing_tag_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery("<a>text</b>")

    def test_computed_attribute_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_xquery('<a x="{ $y }"/>')


class TestSequencesAndErrors:
    def test_parenthesized_sequence(self):
        expr = parse_xquery("($x, $y, $z)")
        assert isinstance(expr, SequenceExpr)
        assert len(expr.items) == 3

    def test_empty_sequence(self):
        assert parse_xquery("()") == EmptySequence()

    def test_braced_expression_tolerated(self):
        assert parse_xquery("{ $x }") == VarRef("x")

    def test_aggregation_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_xquery("count($x/book)")

    def test_unknown_function_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_xquery("frobnicate($x)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery("$x extra")

    def test_bare_name_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery("title")

    def test_unterminated_string_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery('"unterminated')

    def test_error_reports_position(self):
        try:
            parse_xquery("for $x in $y return @@")
        except XQuerySyntaxError as error:
            assert error.position > 0
        else:  # pragma: no cover
            pytest.fail("expected XQuerySyntaxError")


class TestLexicalRules:
    """XQuery 1.0 references, doubled braces and nested comments."""

    @pytest.mark.parametrize(
        "query,value",
        [
            ('"a &lt; b"', "a < b"),
            ('"&amp;&quot;&apos;&gt;"', "&\"'>"),
            ("'&#65;&#x42;'", "AB"),
            ('"say ""&amp;"""', 'say "&"'),
        ],
    )
    def test_string_literal_references(self, query, value):
        assert parse_xquery(query) == Literal(value)

    def test_content_references(self):
        assert parse_xquery("<r>a &lt; b</r>").content == Literal("a < b")

    def test_attribute_value_references(self):
        expr = parse_xquery('<a x="&lt;&#34;&amp;"/>')
        assert expr.attributes == (("x", '<"&'),)

    def test_reference_is_content_not_boundary_whitespace(self):
        assert parse_xquery("<a>&#32;</a>").content == Literal(" ")
        assert parse_xquery("<a> </a>").content == EmptySequence()

    @pytest.mark.parametrize(
        "query",
        ['"a & b"', '"&bogus;"', "<a>&#xZZ;</a>", "<a>&</a>", '<a x="&"/>', "<a x='&lt'/>"],
    )
    def test_bad_or_bare_ampersand_rejected(self, query):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery(query)

    def test_doubled_braces_in_content(self):
        assert parse_xquery("<a>{{x}}</a>").content == Literal("{x}")
        expr = parse_xquery("<a>{{{ $y }}}}</a>")
        assert expr.content == SequenceExpr((Literal("{"), VarRef("y"), Literal("}}")))

    def test_doubled_braces_in_attribute_values(self):
        assert parse_xquery('<a x="{{}}"/>').attributes == (("x", "{}"),)

    def test_single_brace_in_attribute_value_still_computed(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_xquery('<a x="{{{"/>')

    def test_comments_nest(self):
        assert parse_xquery("(: a (: b :) c :) $x") == VarRef("x")
        assert parse_xquery("$x (: (: :) (: (: :) :) :)") == VarRef("x")

    def test_unclosed_nested_comment_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_xquery("(: a (: b :) $x")

    @pytest.mark.parametrize("engine", ["flux", "dom"])
    def test_engines_output_expanded_references(self, engine):
        run = (
            FluxEngine(BIB_DTD_STRONG).execute if engine == "flux" else DomEngine().execute
        )
        result = run('<r x="&amp;{{}}">a &lt; b&#32;{{</r>', "<bib/>")
        assert result.output == '<r x="&amp;{}">a &lt; b {</r>'


_NAMES = st.sampled_from(["a", "b_1", "x-y", "c.d", "for", "text", "return", "ROOT"])
_STRINGS = st.text(alphabet='ab &<{}"\';#', max_size=8)
_STEPS = st.one_of(
    st.builds(ChildStep, st.one_of(_NAMES, st.just("*"))),
    st.builds(DescendantStep, st.one_of(_NAMES, st.sampled_from(["*", "text()"]))),
    st.builds(AttributeStep, _NAMES),
    st.just(TextStep()),
)


@st.composite
def _asts(draw, depth=0, primary=False):
    """An AST the parser can build: canonical sequences, primaries as
    comparison operands, numbers whose ``str`` reads back as themselves.
    ``primary`` asks for a node that renders without operators around it."""
    kinds = ["var", "path", "string", "number", "empty"]
    if depth < 3:
        kinds += ["sequence", "element", "call", "not"]
        if not primary:
            kinds += ["for", "let", "if", "compare", "and", "or"]
    kind = draw(st.sampled_from(kinds))
    sub = lambda: draw(_asts(depth + 1))  # noqa: E731
    if kind == "var":
        return VarRef(draw(_NAMES))
    if kind == "path":
        return PathExpr(draw(_NAMES), tuple(draw(st.lists(_STEPS, min_size=1, max_size=3))))
    if kind == "string":
        return Literal(draw(_STRINGS))
    if kind == "number":
        number = draw(st.one_of(
            st.integers(min_value=0, max_value=10**9),
            st.from_regex(r"\A[0-9]{1,5}\.[0-9]{1,3}\Z").map(float),
        ))
        return Literal(number)
    if kind == "empty":
        return EmptySequence()
    if kind in ("sequence", "and", "or"):
        items = [sub() for _ in range(draw(st.integers(2, 3)))]
        if kind == "sequence":
            # Two items that are not empty stay a sequence when flattened.
            return sequence_of(
                Literal("") if isinstance(item, EmptySequence) else item for item in items
            )
        return (AndExpr if kind == "and" else OrExpr)(tuple(items))
    if kind == "element":
        attributes = tuple(draw(st.lists(st.tuples(_NAMES, _STRINGS), max_size=2)))
        return ElementConstructor(draw(_NAMES), attributes, sequence_of([sub()]))
    if kind == "call":
        name = draw(st.sampled_from(FunctionCall.SUPPORTED))
        return FunctionCall(name, tuple(sub() for _ in range(draw(st.integers(0, 2)))))
    if kind == "not":
        return NotExpr(sub())
    if kind == "for":
        where = sub() if draw(st.booleans()) else None
        return ForExpr(draw(_NAMES), sub(), sub(), where)
    if kind == "let":
        return LetExpr(draw(_NAMES), sub(), sub())
    if kind == "if":
        return IfExpr(sub(), sub(), sub())
    op = draw(st.sampled_from(Comparison.VALID_OPS))
    return Comparison(op, draw(_asts(depth + 1, True)), draw(_asts(depth + 1, True)))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_asts())
    def test_rendered_ast_parses_to_itself(self, expr):
        assert parse_xquery(expr.to_xquery()) == expr

    @pytest.mark.parametrize(
        "query",
        [
            "for $b in $ROOT/bib/book return <result>{ $b/title }</result>",
            'if ($x/a = "v") then <y/> else ()',
            "for $a in $x/p return for $b in $a/q return ($a, $b)",
            "<out>{ for $i in $ROOT/site/regions/item return <item>{ $i/name }</item> }</out>",
            '<a x="&lt;&quot;{{}}&amp;">&amp;lt; "{{}}"</a>',
        ],
    )
    def test_to_xquery_reparses_to_equal_ast(self, query):
        first = parse_xquery(query)
        second = parse_xquery(first.to_xquery())
        assert first == second
