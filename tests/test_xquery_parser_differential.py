"""The token-driven XQuery parser against the frozen character-level one.

``tests/_reference_xquery_parser.py`` is the parser as it stood before the
token pattern replaced it.  Every input here must give the same AST from
both, or raise the same exception class from both — on well-formed
queries, on queries with whitespace and comments drawn between tokens,
and on broken ones.  The inputs:

* (i) the catalogued queries, ``examples/explain_golden.xq`` and a seeded
  sample of fleet aliases (``make_fleet``) of both corpora;
* (ii) texts drawn from a grammar of the fragment;
* (iii) seeded single-edit mutants of (i).
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_xquery_parser import parse_xquery as reference_parse
from repro.bench.fleets import make_fleet
from repro.workloads.queries import queries_for_workload
from repro.xquery.parser import parse_xquery

_GOLDEN = os.path.join(os.path.dirname(__file__), "..", "examples", "explain_golden.xq")


def _verdict(parse, text):
    try:
        return "ok", parse(text)
    except Exception as error:  # the class is the verdict
        return type(error).__name__, None


def _assert_same_verdict(text):
    assert _verdict(parse_xquery, text) == _verdict(reference_parse, text), text


def _seeds():
    with open(_GOLDEN, encoding="utf-8") as handle:
        texts = [handle.read()]
    for corpus in ("bib", "auction"):
        bases = [spec.xquery for spec in queries_for_workload(corpus)]
        texts += bases
        fleet = make_fleet(bases, 2000)
        texts += [query.text for query in random.Random(corpus).sample(fleet, 20)]
    return texts


_SEEDS = _seeds()


# ------------------------------------------------------- (i) the catalogue


@pytest.mark.parametrize("index", range(len(_SEEDS)))
def test_catalogued_queries_and_aliases(index):
    text = _SEEDS[index]
    assert _verdict(parse_xquery, text)[0] == "ok"
    _assert_same_verdict(text)


# --------------------------------------------- (ii) drawn from the grammar

_SEPARATORS = st.sampled_from(
    [" ", " ", "\n  ", "\t", "(: c :)", " (: a (: nested :) b :) ", "(::)", " "]
)
_GLUE = st.one_of(st.just(""), _SEPARATORS)
_NAMES = st.sampled_from(["a", "b_1", "x-y", "c.d", "book", "text", "for", "in", "eq", "for.x"])
_STRINGS = st.sampled_from(
    ['"s"', "'s'", '"a""b"', "'a''b'", '"&lt;&#32;&amp;"', '"&bogus;"', '""', '"(: :)"']
)
_CONTENT_TEXT = st.sampled_from(
    ["t", " ", "a &lt; b", "&#32;", "{{", "}}", "}", "x}}y{{", "(: not a comment :)", "&"]
)


@st.composite
def _texts(draw, depth=0):
    """A text of the fragment: ``depth`` bounds the nesting."""
    sep, glue = (lambda: draw(_SEPARATORS)), (lambda: draw(_GLUE))
    leaves = ["path", "string", "number", "empty"]
    kind = draw(st.sampled_from(leaves if depth >= 3 else leaves + [
        "for", "let", "if", "compare", "logic", "sequence", "call", "element", "braced",
    ]))
    if kind == "path":
        root = draw(st.sampled_from(["$", "$", "/", "//", "doc('d')/"]))
        parts = [root + (draw(_NAMES) if root == "$" else "")]
        for _ in range(draw(st.integers(0, 3))):
            axis = draw(st.sampled_from(["/", "/", "//"]))
            step = draw(st.one_of(_NAMES, st.sampled_from(["*", "@a", "text()", "@ b"])))
            parts += [glue(), axis, glue(), step]
        return "".join(parts)
    if kind == "string":
        return draw(_STRINGS)
    if kind == "number":
        return draw(st.sampled_from(["1", "42", "3.14", "0.5"]))
    if kind == "empty":
        return "(" + glue() + ")"
    sub = lambda: draw(_texts(depth + 1))  # noqa: E731
    if kind == "for":
        where = f"{sep()}where{sep()}{sub()}" if draw(st.booleans()) else ""
        more = f",{glue()}${draw(_NAMES)}{sep()}in{sep()}{sub()}" if draw(st.booleans()) else ""
        return (f"for{sep()}${draw(_NAMES)}{sep()}in{sep()}{sub()}{more}{where}"
                f"{sep()}return{sep()}{sub()}")
    if kind == "let":
        return f"let{sep()}${draw(_NAMES)}{glue()}:={glue()}{sub()}{sep()}return{sep()}{sub()}"
    if kind == "if":
        return (f"if{glue()}({glue()}{sub()}{glue()}){sep()}then{sep()}{sub()}"
                f"{sep()}else{sep()}{sub()}")
    if kind == "compare":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "eq", "ne", "lt", "ge"]))
        around = sep if op.isalpha() else glue
        return f"{sub()}{around()}{op}{around()}{sub()}"
    if kind == "logic":
        return f"{sub()}{sep()}{draw(st.sampled_from(['and', 'or']))}{sep()}{sub()}"
    if kind == "sequence":
        return f"({glue()}{sub()}{glue()},{glue()}{sub()}{glue()})"
    if kind == "call":
        # "for.x(" starts with the keyword "for", not a call to "for.x".
        name = draw(st.sampled_from(
            ["exists", "not", "string", "true", "count", "frob", "for.x", "if.y"]
        ))
        return f"{name}{glue()}({glue()}{sub()}{glue()})"
    if kind == "braced":
        return f"{{{glue()}{sub()}{glue()}}}"
    name = draw(_NAMES)
    attributes = "".join(
        f"{sep()}{draw(_NAMES)}{glue()}={glue()}"
        + draw(st.sampled_from(['"v"', "'v'", '"&amp;{{}}"', '"{ $x }"', '"a""b"']))
        for _ in range(draw(st.integers(0, 2)))
    )
    if draw(st.booleans()):
        return f"<{name}{attributes}{glue()}/>"
    content = "".join(
        draw(st.one_of(_CONTENT_TEXT, st.builds(lambda e: "{" + e + "}", _texts(depth + 1))))
        for _ in range(draw(st.integers(0, 3)))
    )
    return f"<{name}{attributes}>{content}</{glue()}{name}{glue()}>"


@settings(max_examples=300, deadline=None)
@given(_texts())
def test_grammar_drawn_texts(text):
    _assert_same_verdict(text)


# ------------------------------------------------ (iii) single-edit mutants

_EDITS = list("$/(){}<>=!:,.@*\"'&;#- \n") + [
    "(:", ":)", "for", "in", "return", "eq", "{{", "}}", "&lt;", "text()", "//", "count",
]


def _mutants(count, seed=44):
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(_SEEDS)
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            yield text[:at] + text[at + 1 :]
        elif edit == 1:
            yield text[:at] + rng.choice(_EDITS) + text[at:]
        else:
            yield text[:at] + rng.choice(_EDITS) + text[at + 1 :]


def test_single_edit_mutants():
    verdicts = {}
    for text in _mutants(3000):
        verdict = _verdict(parse_xquery, text)
        assert verdict == _verdict(reference_parse, text), text
        verdicts[verdict[0]] = verdicts.get(verdict[0], 0) + 1
    # The mutants reach every verdict, not only the syntax error.
    assert set(verdicts) == {"ok", "XQuerySyntaxError", "UnsupportedFeatureError"}
