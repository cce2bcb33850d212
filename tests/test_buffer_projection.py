"""Projected buffers: the BDF lists paths, and only those are materialized.

The buffer description forest maps every buffered label to the paths below
it that buffered expressions read (``repro.xquery.analysis
.projection_paths`` rooted at the stream variable); the runtime builds
those and drains the rest.  The shape table pins what is projected and what
stays whole; the differential holds projected runs to ``DomEngine``, which
projects nothing, on drawn documents through every driver.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FluxEngine, QueryService
from repro.bench.fleets import alias_query
from repro.core.flux import (
    FBufferedExpr,
    FCopyVar,
    FluxQuery,
    FProcessStream,
    FSequence,
    OnFirstHandler,
)
from repro.core.optimizer import OptimizerPipeline
from repro.engines.dom_engine import DomEngine
from repro.runtime.bdf import build_bdf, describe_buffers
from repro.runtime.compiler import compile_query
from repro.runtime.evaluator import EvaluatorSession
from repro.runtime.plan import ProcessStreamOp
from repro.runtime.plan_cache import structure_key
from repro.workloads import generate_auction_site, generate_bibliography, get_query
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_WEAK
from repro.xmlstream.parser import parse_events
from repro.xquery.parser import parse_xquery

A3 = get_query("AUC-A3").xquery
_BOOK = "<r>{ for $b in $ROOT/bib/book return <x>{ $b/title }"
_END = "</x> }</r>"


def stream_op(plan, element_type):
    pending = [plan.root]
    while pending:
        op = pending.pop()
        if type(op) is ProcessStreamOp and op.element_type == element_type:
            return op
        pending.extend(op.children())
    raise AssertionError(f"no process-stream over {element_type}")


def buffers(dtd, query, element_type):
    """What the plan buffers below ``element_type``, as ``explain`` prints it."""
    op = stream_op(FluxEngine(dtd).compile(query).plan, element_type)
    if op.buffer_whole:
        return "whole subtree"
    return describe_buffers(op.buffer_labels, op.buffer_paths)


# ---------------------------------------------------------------- the shapes


SHAPES = {
    "a path below the label": (_BOOK + "{ $b/author/last }" + _END, "author/last"),
    "an attribute below the label": (
        _BOOK + "{ for $a in $b/author return <a>{ $a/@id }</a> }" + _END,
        "author/@*",
    ),
    "a bare reference": (_BOOK + "{ for $a in $b/author return $a }" + _END, "author"),
    "a descendant step": (_BOOK + "{ $b/author//last }" + _END, "author"),
    "a wildcard step": (_BOOK + "{ $b/author/* }" + _END, "author"),
    "a text() step": (_BOOK + "{ $b/author/text() }" + _END, "author"),
    "an on-handled label": (
        "<r>{ for $b in $ROOT/bib/book return <x>{ for $a in $b/author return "
        "<a>{ $a/last }</a> }{ $b/author/first }" + _END,
        "author",
    ),
    "a copy of the variable": (_BOOK + "{ $b }" + _END, "whole subtree"),
    "a descendant step on the variable": (_BOOK + "{ $b//last }" + _END, "whole subtree"),
    "two handlers reading one variable": (
        _BOOK + "{ $b/author/last }{ $b/price }{ $b/author/first }" + _END,
        "author/first, author/last, price",
    ),
    "a shadowing for": (_BOOK + "{ for $b in $b/author return $b/last }" + _END, "author/last"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_what_is_buffered_below_a_book(shape):
    query, expected = SHAPES[shape]
    assert buffers(BIB_DTD_WEAK, query, "book") == expected


def test_the_join_buffers_four_short_paths():
    op = stream_op(FluxEngine(AUCTION_DTD).compile(A3).plan, "site")
    assert op.buffer_labels == {"people", "closed_auctions"}
    assert op.buffer_paths == {
        (("people",), False),
        (("people", "person"), False),
        (("people", "person", "name"), True),
        (("closed_auctions",), False),
        (("closed_auctions", "closed_auction"), False),
        (("closed_auctions", "closed_auction", "buyer"), False),
        (("closed_auctions", "closed_auction", "price"), True),
    }
    assert buffers(AUCTION_DTD, A3, "site") == (
        "closed_auctions/closed_auction/buyer/@*, closed_auctions/closed_auction/price, "
        "people/person/name"
    )


def test_a_copy_in_an_on_first_body_buffers_the_element_whole():
    reads = FBufferedExpr(parse_xquery("for $a in $b/author return $a/last"))

    def forest(*body):
        handler = OnFirstHandler(frozenset({"author"}), FSequence(body))
        return build_bdf(FluxQuery(FProcessStream("b", "book", (handler,))))

    assert forest(reads).get("b").describe() == "$b (book): author/last"
    copied = forest(reads, FCopyVar("b")).get("b")
    assert copied.whole_subtree and copied.paths() == frozenset()


# ------------------------------------------------------------ structure keys


def test_projected_plans_keep_their_structure_keys_shared():
    pipeline = OptimizerPipeline(AUCTION_DTD)
    aliases = [compile_query(alias_query(A3, k), pipeline=pipeline) for k in (0, 1)]
    assert stream_op(aliases[1].plan, "site").buffer_paths
    assert structure_key(aliases[0]) == structure_key(aliases[1])
    # The paths are plain tuples: no object identity reaches the key.
    twice = [compile_query(A3, pipeline=OptimizerPipeline(AUCTION_DTD)) for _ in range(2)]
    assert structure_key(twice[0]) == structure_key(twice[1])


# -------------------------------------------------------------- differential

#: The projecting plans — AUC-A3, BIB-Q6 under the weak DTD — and the
#: table's, projected or not.
PLANS = {
    "auction": (AUCTION_DTD, [A3]),
    "bib": (BIB_DTD_WEAK, [get_query("BIB-Q6").xquery] + [query for query, _ in SHAPES.values()]),
}


def assert_projected_runs_match_dom(workload, document):
    dtd, queries = PLANS[workload]
    engine, dom = FluxEngine(dtd), DomEngine(dtd)
    events = list(parse_events(document))
    service = QueryService(dtd)
    expected = {}
    for index, query in enumerate(queries):
        compiled = engine.compile(query)
        expected[str(index)] = dom.execute(query, document).output
        assert compiled.execute(document).output == expected[str(index)], query
        session = EvaluatorSession(compiled.plan, engine.dtd).start()
        for event in events:
            session.feed([event])
        assert session.finish()[0] == expected[str(index)], query
        service.register(query, key=str(index))
    served = service.run_pass(document)
    assert {key: result.output for key, result in served.items()} == expected


@given(scale=st.sampled_from([0.02, 0.05, 0.1]), seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_drawn_auction_sites(scale, seed):
    assert_projected_runs_match_dom("auction", generate_auction_site(scale=scale, seed=seed))


@given(
    num_books=st.integers(min_value=0, max_value=6),
    seed=st.integers(0, 10**6),
    editor_fraction=st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=10, deadline=None)
def test_drawn_bibliographies(num_books, seed, editor_fraction):
    document = generate_bibliography(
        num_books=num_books, seed=seed, conform_to="weak", editor_fraction=editor_fraction
    )
    assert_projected_runs_match_dom("bib", document)
