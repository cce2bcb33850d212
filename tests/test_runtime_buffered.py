"""The buffered executor's hash join against the nested loop it replaces.

The join re-checks the original condition on every candidate, so it cannot
emit a pair the nested loop would not; the only way it can be wrong is by
*dropping* one — a key rule that files two ``=``-equal values under different
keys.  The differential tests below draw exactly those values (``7`` / ``7.0``
/ `` 7`` / ``1e1`` / ``10`` / ``NaN`` / empty, missing, repeated, multi-valued)
and hold the join byte-equal to plain ``TreeEvaluator`` and to ``DomEngine``,
neither of which has it.
"""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FluxEngine, QueryService
from repro.core.normalform import normalize
from repro.engines.dom_engine import DomEngine
from repro.errors import EvaluationError
from repro.runtime.buffered import BufferedEvaluator, join_key, lower_expression
from repro.runtime.evaluator import EvaluatorSession
from repro.runtime.stats import RuntimeStats
from repro.workloads import generate_auction_site, get_query, queries_for_workload
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.xmlstream.parser import parse_events
from repro.xmlstream.serializer import serialize_tree
from repro.xmlstream.tree import XMLElement, parse_tree
from repro.xquery.evaluator import TreeEvaluator, compare_atomic, make_document_node
from repro.xquery.parser import parse_xquery

TWO_SIDED_DTD = """<!ELEMENT db (left, right)>
<!ELEMENT left (l*)>
<!ELEMENT right (r*)>
<!ELEMENT l (k*, v)>
<!ATTLIST l id CDATA #IMPLIED>
<!ELEMENT r (k*, w?)>
<!ATTLIST r ref CDATA #IMPLIED>
<!ELEMENT k (#PCDATA)>
<!ELEMENT v (#PCDATA)>
<!ELEMENT w (#PCDATA)>"""

_LOOPS = "for $l in $ROOT/db/left/l return for $r in $ROOT/db/right/r where "
_RETURN = " return <m>{ $l/v } { $r/w }</m>"
JOIN_QUERIES = {
    "attribute": "<o>{ " + _LOOPS + "$r/@ref = $l/@id" + _RETURN + " }</o>",
    "swapped": "<o>{ " + _LOOPS + "$l/@id = $r/@ref" + _RETURN + " }</o>",
    "multi_valued": "<o>{ " + _LOOPS + "$r/k = $l/k and exists($r/w)" + _RETURN + " }</o>",
    "text_to_attribute": "<o>{ " + _LOOPS + "$r/k/text() = $l/@id" + _RETURN + " }</o>",
}


def lowered(text):
    return lower_expression(normalize(parse_xquery(text)))


def joins(text):
    return lowered(text).joins


def join_counters(stats):
    return stats.join_build_rows, stats.join_probes, stats.join_candidates


# ------------------------------------------------------------ (a) recogniser

_PEOPLE = "for $p in $x/person return "
_AUCTIONS = "for $c in $y/closed_auction return "
_THEN = " then <m>{ $c/price }</m> else ()"


class TestRecogniser:
    def test_auc_a3_is_lowered_with_a_two_loop_build_side(self):
        compiled = FluxEngine(AUCTION_DTD).compile(get_query("AUC-A3").xquery)
        (join,) = [j for entry in compiled.plan.lowered().values() for j in entry.joins]
        assert join.build_key.to_xquery() == "$c/buyer/@person"
        assert join.probe_key.to_xquery() == "$p/@id"
        assert [var for var, _ in join.outer][-1] == "p"
        assert len(join.build) == 2 and join.build[-1][0] == "c"
        assert join.describe() == "hash-join build $c/buyer/@person probe $p/@id"

    def test_a_one_loop_build_side(self):
        (join,) = joins(_PEOPLE + _AUCTIONS + "if ($c/buyer/@person = $p/@id)" + _THEN)
        assert [var for var, _ in join.outer] == ["p"]
        assert [var for var, _ in join.build] == ["c"]

    def test_operands_swapped(self):
        (join,) = joins(_PEOPLE + _AUCTIONS + "if ($p/@id = $c/buyer/@person)" + _THEN)
        assert join.build_key.to_xquery() == "$c/buyer/@person"
        assert join.probe_key.to_xquery() == "$p/@id"

    def test_a_conjunction_keeps_its_residual(self):
        condition = "if ($c/buyer/@person = $p/@id and exists($c/price))"
        (join,) = joins(_PEOPLE + _AUCTIONS + condition + _THEN)
        assert join.describe() == (
            "hash-join build $c/buyer/@person probe $p/@id residual exists($c/price)"
        )
        # The node re-checks the whole condition, not the residual alone.
        assert join.condition.to_xquery() == "($c/buyer/@person = $p/@id) and (exists($c/price))"

    def test_the_node_sits_at_the_outermost_loop_the_build_side_is_invariant_of(self):
        # The build source reads $g: the join is hoisted to $p, inside $g.
        text = (
            "for $g in $x/group return for $p in $g/person return "
            "for $c in $g/closed_auction return if ($c/buyer/@person = $p/@id)" + _THEN
        )
        entry = lowered(text)
        (join,) = entry.joins
        assert [var for var, _ in join.outer] == ["p"]
        assert entry.expr.var == "g" and entry.expr.body is join

    @pytest.mark.parametrize(
        "text",
        [
            _PEOPLE + _AUCTIONS + "if ($c/buyer/@person != $p/@id)" + _THEN,
            _PEOPLE + _AUCTIONS + "if ($c/price < $p/@id)" + _THEN,
            _PEOPLE + _AUCTIONS + "if ($c/buyer/@person = $p/@id or exists($c/price))" + _THEN,
            _PEOPLE + _AUCTIONS + 'if ($c/buyer/@person = "person1")' + _THEN,
            _PEOPLE + _AUCTIONS + "if (string($c/buyer/@person) = $p/@id)" + _THEN,
            # the build source reads the outer variable
            _PEOPLE + "for $c in $p/closed_auction return if ($c/buyer/@person = $p/@id)" + _THEN,
            # the condition reads one side only
            _PEOPLE + _AUCTIONS + "if ($c/buyer/@person = $c/seller/@person)" + _THEN,
            _PEOPLE + _AUCTIONS + "if ($p/name = $p/@id)" + _THEN,
            # an else branch, a loop variable that shadows a binding the chain reads
            _PEOPLE + _AUCTIONS + "if ($c/buyer/@person = $p/@id) then <m/> else <n/>",
            "for $p in $c/person return " + _AUCTIONS + "if ($c/buyer/@person = $p/@id)" + _THEN,
        ],
    )
    def test_not_lowered(self, text):
        entry = lowered(text)
        assert entry.joins == ()
        assert entry.expr is entry.original

    def test_no_bib_or_other_auction_plan_contains_a_join(self):
        for dtd, workload in ((BIB_DTD_STRONG, "bib"), (AUCTION_DTD, "auction")):
            engine = FluxEngine(dtd)
            for spec in queries_for_workload(workload):
                entries = engine.compile(spec.xquery).plan.lowered().values()
                assert any(e.joins for e in entries) == (spec.key == "AUC-A3"), spec.key


# ----------------------------------------------------------- the key rule

KEYS = ["7", "7.0", " 7", "07", "1e1", "10", "1_0", "-0", "0", "NaN", "nan", "INF", "", "a", "A"]


class TestJoinKey:
    @pytest.mark.parametrize("left", KEYS)
    @pytest.mark.parametrize("right", KEYS)
    def test_two_values_share_a_key_exactly_when_they_are_equal(self, left, right):
        shared = join_key(left) is not None and join_key(left) == join_key(right)
        assert shared == compare_atomic("=", left, right)

    def test_atomic_numbers_key_like_their_strings(self):
        assert join_key(7) == join_key(7.0) == join_key("7") == join_key(" 7.0 ")
        assert join_key(float("nan")) is None


# ------------------------------------------------------- (b) differentials

key_values = st.sampled_from(KEYS)


@st.composite
def two_sided_documents(draw):
    def rows(tag, attribute, payload):
        out = []
        for _ in range(draw(st.integers(0, 5))):
            attr = draw(st.one_of(st.none(), key_values))
            attrs = "" if attr is None else f' {attribute}="{attr}"'
            keys = "".join(f"<k>{key}</k>" for key in draw(st.lists(key_values, max_size=3)))
            with_payload = payload == "v" or draw(st.booleans())
            body = f"<{payload}>{len(out)}</{payload}>" if with_payload else ""
            out.append(f"<{tag}{attrs}>{keys}{body}</{tag}>")
        return "".join(out)

    left, right = rows("l", "id", "v"), rows("r", "ref", "w")
    return f"<db><left>{left}</left><right>{right}</right></db>"


ENGINE = FluxEngine(TWO_SIDED_DTD)
DOM = DomEngine(TWO_SIDED_DTD)
COMPILED = {name: ENGINE.compile(text) for name, text in JOIN_QUERIES.items()}
SERVICE = QueryService(TWO_SIDED_DTD)
for _name, _text in JOIN_QUERIES.items():
    SERVICE.register(_text, key=_name)


def test_every_differential_query_is_lowered():
    for name, compiled in COMPILED.items():
        assert [len(e.joins) for e in compiled.plan.lowered().values()] == [1], name


@settings(max_examples=60, deadline=None)
@given(document=two_sided_documents(), name=st.sampled_from(sorted(JOIN_QUERIES)))
def test_join_is_byte_equal_to_dom_engine_on_every_face(document, name):
    compiled = COMPILED[name]
    expected = DOM.execute(JOIN_QUERIES[name], document).output

    assert compiled.execute(document).output == expected

    session = EvaluatorSession(compiled.plan, ENGINE.dtd).start()
    for event in parse_events(document):
        session.feed([event])
    assert session.finish()[0] == expected

    assert SERVICE.run_pass(document)[name].output == expected


@settings(max_examples=60, deadline=None)
@given(document=two_sided_documents(), name=st.sampled_from(sorted(JOIN_QUERIES)))
def test_lowered_expression_equals_the_interpreted_one(document, name):
    entry = lowered(JOIN_QUERIES[name])
    assert entry.joins
    root = make_document_node(parse_tree(document))
    stats = RuntimeStats()
    interpreted = TreeEvaluator({"ROOT": root}).evaluate(entry.original)
    joined = BufferedEvaluator({"ROOT": root}, stats).evaluate(entry.expr)
    assert [serialize_tree(item) for item in joined] == [
        serialize_tree(item) for item in interpreted
    ]
    # Every emitted pair went through the re-check as a candidate.
    assert stats.join_candidates >= len(joined[0].child_elements("m"))


def test_empty_sides_and_duplicate_matches():
    query = JOIN_QUERIES["attribute"]
    for document, builds in (
        ("<db><left></left><right><r ref='1'/></right></db>", 0),  # empty probe side
        ("<db><left><l id='1'><v>a</v></l></left><right></right></db>", 0),  # empty build side
        (
            "<db><left><l id='1'><v>a</v></l><l id='1.0'><v>b</v></l></left>"
            "<right><r ref='1'><w>x</w></r><r ref=' 1 '><w>y</w></r></right></db>",
            2,
        ),
    ):
        result = COMPILED["attribute"].execute(document)
        assert result.output == DOM.execute(query, document).output
        assert result.stats.join_build_rows == builds
    assert result.output.count("<m>") == 4


def test_a_rejected_query_runs_exactly_as_before():
    query = "<o>{ " + _LOOPS + "$r/@ref != $l/@id" + _RETURN + " }</o>"
    document = "<db><left><l id='1'><v>a</v></l></left><right><r ref='2'/></right></db>"
    result = ENGINE.execute(query, document)
    assert result.output == DOM.execute(query, document).output
    assert join_counters(result.stats) == (0, 0, 0)


def test_unbound_variable_still_raises_where_the_loop_did():
    query = "<o>{ " + _LOOPS + "exists($nowhere/x) and $r/@ref = $l/@id" + _RETURN + " }</o>"
    # No key matches: a join would never reach the residual condition.
    document = "<db><left><l id='1'><v>a</v></l></left><right><r ref='2'/></right></db>"
    with pytest.raises(EvaluationError, match="unbound variable"):
        ENGINE.execute(query, document)


# ------------------------------------------------------------ (c) counting


def test_unique_keys_check_one_candidate_per_probe_and_build_once():
    size = 300
    left = "".join(f'<l id="{i}"><v>{i}</v></l>' for i in range(size))
    right = "".join(f'<r ref="{i}.0"><w>{i}</w></r>' for i in reversed(range(size)))
    document = f"<db><left>{left}</left><right>{right}</right></db>"
    result = COMPILED["attribute"].execute(document)
    assert result.output.count("<m>") == size
    stats = result.stats
    assert stats.join_build_rows == size  # one table per firing
    assert stats.join_probes == size
    assert stats.join_candidates <= size  # the nested loop checks size * size
    assert {"join_build_rows", "join_probes", "join_candidates"} <= result.stats.as_dict().keys()


def test_the_table_is_rebuilt_per_firing_and_the_ledger_does_not_see_it():
    document = generate_auction_site(scale=0.3, seed=5)
    query = get_query("AUC-A3").xquery
    flux = FluxEngine(AUCTION_DTD).compile(query)
    first, second = flux.execute(document), flux.execute(document)
    assert first.output == DomEngine(AUCTION_DTD).execute(query, document).output
    assert join_counters(first.stats) == join_counters(second.stats)
    assert first.stats.join_build_rows > 0
    # Positions and shared key strings add rows to the counters and no
    # bytes to the buffer ledger: the ledger holds exactly the two sections
    # the join reads, projected to the paths it reads.  The whole sections
    # (6221 B, 171 nodes) were the ledger before buffers were projected.
    site = parse_tree(document)
    sections = [
        projected(site.first_child("people"), {"person": {"name": None}}),
        projected(site.first_child("closed_auctions"),
                  {"closed_auction": {"buyer": {}, "price": None}}),
    ]
    assert first.stats.peak_buffer_bytes == sum(s.size_estimate() for s in sections) == 2830
    assert first.stats.buffered_nodes == sum(s.node_count() for s in sections) == 86


def projected(element, paths):
    """``element`` with only the children on ``paths``: name -> the paths
    below it, or ``None`` for the whole child."""
    copy = XMLElement(element.tag, element.attrs)
    for child in element.child_elements():
        if child.tag in paths:
            below = paths[child.tag]
            copy.append(child if below is None else projected(child, below))
    return copy


# ----------------------------------------------------- reference engines


def test_the_reference_engines_do_not_get_the_join():
    import repro.engines.dom_engine as dom_engine
    import repro.engines.projection_engine as projection_engine
    import repro.xquery.evaluator as reference

    for module in (dom_engine, projection_engine, reference):
        with open(module.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = {
            name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in [getattr(node, "module", None)] + [alias.name for alias in node.names]
        }
        assert not any("buffered" in (name or "") for name in imported), module.__name__
        assert not hasattr(module, "HashJoin")
    document = generate_auction_site(scale=0.3, seed=5)
    for engine in (DomEngine(AUCTION_DTD), dom_engine.DomEngine(AUCTION_DTD)):
        stats = engine.execute(get_query("AUC-A3").xquery, document).stats
        assert join_counters(stats) == (0, 0, 0)
