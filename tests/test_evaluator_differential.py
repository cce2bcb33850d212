"""The lowered evaluator against the plan interpreter it replaced.

``tests/_reference_evaluator.py`` holds the streamed evaluator as it was
before plans were lowered to closures, and before buffers were projected to
the paths the buffer description forest lists.  Here the live evaluator
must agree with it byte for byte and counter for counter — except that a
projected buffer may hold fewer bytes and nodes, never more, and exactly as
many where the plan projects nothing — or raise the same error:
every workload query on bib and XMark documents, drawn bib documents, the
atomic-spacing shapes where FluX and DOM are known to differ, and shapes
that reach the lowered paths the workload queries leave out — pulled,
pushed one event at a time through ``EvaluatorSession`` with every starved
pull retried, and served by ``QueryService.run_pass``, validation on and off.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.session as service_session
from _reference_evaluator import ReferenceEvaluator, ReferenceSession
from repro import FluxEngine, QueryService
from repro.runtime.evaluator import EvaluatorSession, StreamedEvaluator
from repro.runtime.plan import ProcessStreamOp
from repro.workloads import generate_auction_site, generate_bibliography, queries_for_workload
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG, BIB_DTD_WEAK
from repro.xmlstream.events import EndDocument, EndElement, StartElement
from repro.xmlstream.parser import parse_events
from repro.xmlstream.serializer import escape_attribute, escape_text

#: FluX and DOM space these atomics differently (ROADMAP item 7); the
#: lowering must keep FluX's spacing.
ATOMIC_SPACING = [
    "<r>{ for $b in $ROOT/bib/book return <y>year:{ $b/@year }</y> }</r>",
    "<r>{ for $b in $ROOT/bib/book return <y>{ $b/@year } and { $b/@year }</y> }</r>",
    "<r>{ for $b in $ROOT/bib/book return ($b/@year, $b/@year) }</r>",
]
_BOOK = "<r>{ for $b in $ROOT/bib/book return "
#: Under the strong DTD: on-first handlers with the empty condition and with
#: one that holds before a later handled child, a copy of an outer scope, a
#: conditional whose branch pulls, a buffered child replayed into a handler,
#: a buffered child copied, a whole-subtree buffer, and a streamed copy with
#: attributes below its root.
PATHS = [
    _BOOK + "(<t>{ $b/@year }</t>, $b/title) }</r>",
    _BOOK + "<x>{ string($b/title) }{ $b/author }</x> }</r>",
    _BOOK + "<x>{ $b }</x> }</r>",
    _BOOK + "if ($b/@year > 1991) then <n>{ $b/title }</n> else <o>old</o> }</r>",
    _BOOK + "<x>{ for $a in $b/author return <a>{ $a/last }</a> }{ $b/author/first }</x> }</r>",
    _BOOK + "<x>{ $b/author }{ $b/author/last }</x> }</r>",
    _BOOK + "($b/title, <c>{ $b }</c>) }</r>",
    "<r>{ for $x in $ROOT/bib return $x }</r>",
]
BIB_QUERIES = [spec.xquery for spec in queries_for_workload("bib")] + ATOMIC_SPACING + PATHS
AUCTION_QUERIES = [spec.xquery for spec in queries_for_workload("auction")]


def compiled(dtd_text, queries):
    engine = FluxEngine(dtd_text)
    return engine.dtd, [engine.compile(query).plan for query in queries]


BIB = {"strong": compiled(BIB_DTD_STRONG, BIB_QUERIES), "weak": compiled(BIB_DTD_WEAK, BIB_QUERIES)}
AUCTION = compiled(AUCTION_DTD, AUCTION_QUERIES)


# --------------------------------------------------------------- the runners


def counters(stats):
    values = stats.as_dict()
    del values["elapsed_seconds"]
    values["current_buffer_bytes"] = stats.current_buffer_bytes
    return values


#: The counters a projected buffer lowers.
PROJECTED = ("peak_buffer_bytes", "buffered_nodes")


def projects(plan):
    """Whether ``plan`` materializes any buffered label less than whole."""
    pending = [plan.root]
    while pending:
        op = pending.pop()
        if type(op) is ProcessStreamOp and op.buffer_paths:
            return True
        pending.extend(op.children())
    return False


def assert_matches(live, reference, plan, where):
    """``live`` is the ``reference`` outcome, up to what projection lowers."""
    if projects(plan) and isinstance(live[1], dict) and isinstance(reference[1], dict):
        live, reference = (live[0], dict(live[1])), (reference[0], dict(reference[1]))
        for name in PROJECTED:
            assert live[1].pop(name) <= reference[1].pop(name), f"{where}: {name}"
    assert live == reference, where


def outcome(run):
    """``(output, counters)`` of ``run()``, or the type and message it raised."""
    try:
        output, stats = run()
    except Exception as error:
        return type(error), str(error)
    return output, counters(stats)


def pulled(evaluator_class, plan, dtd, events, validate):
    return outcome(
        lambda: evaluator_class(plan, dtd, validate=validate).run_to_string(iter(events))
    )


def pushed(plan, dtd, events, validate):
    """One event per feed; an empty feed after each retries the starved pull."""

    def run():
        session = EvaluatorSession(plan, dtd, validate=validate).start()
        for event in events:
            session.feed([event])
            session.feed([])
        return session.finish()

    return outcome(run)


def assert_evaluators_agree(compiled_plans, events, label=""):
    dtd, plans = compiled_plans
    for validate in (True, False):
        for index, plan in enumerate(plans):
            expected = pulled(ReferenceEvaluator, plan, dtd, events, validate)
            where = f"{label} query {index} validate={validate}"
            live = pulled(StreamedEvaluator, plan, dtd, events, validate)
            assert_matches(live, expected, plan, where)
            assert_matches(pushed(plan, dtd, events, validate), expected, plan, where)


def served(dtd_text, queries, document, validate):
    service = QueryService(dtd_text, validate=validate)
    for index, query in enumerate(queries):
        service.register(query, key=str(index))
    return {
        key: (result.output, counters(result.stats))
        for key, result in service.run_pass(document).items()
    }


def variants(events):
    """``events`` and broken variants of it, by name."""
    yield "intact", events
    starts = [i for i, e in enumerate(events) if type(e) is StartElement]
    ends = [i for i, e in enumerate(events) if type(e) is EndElement]
    yield "cut short", events[: len(events) // 2] + [EndDocument()]
    yield "cut inside a leaf", events[: starts[len(starts) // 2] + 1]
    leaf = next(i for i in starts[len(starts) // 2:] if type(events[i + 2]) is EndElement)
    yield "leaf dropped", events[:leaf] + events[leaf + 3:]
    mismatched = list(events)
    mismatched[ends[len(ends) // 3]] = EndElement("mismatch")
    yield "mismatched end tag", mismatched


# -------------------------------------------------------------------- inputs


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("dtd", ["strong", "weak"])
def test_bibliography_documents(seed, dtd):
    document = generate_bibliography(num_books=8, seed=seed, conform_to=dtd)
    for name, events in variants(list(parse_events(document))):
        assert_evaluators_agree(BIB[dtd], events, name)


def test_xmark_documents():
    events = list(parse_events(generate_auction_site(scale=0.05, seed=3)))
    for name, events in variants(events):
        assert_evaluators_agree(AUCTION, events, name)


@given(
    num_books=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
    dtd=st.sampled_from(["strong", "weak"]),
    max_authors=st.integers(min_value=1, max_value=4),
    editor_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    markup=st.text(alphabet="a &<>\"'\t\n\r", max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_drawn_bibliographies(num_books, seed, dtd, max_authors, editor_fraction, markup):
    document = generate_bibliography(
        num_books=num_books,
        seed=seed,
        conform_to=dtd,
        max_authors=max_authors,
        editor_fraction=editor_fraction,
    )
    # Characters the serializer must escape, in copied text and attributes.
    document = document.replace("<title>", "<title>" + escape_text(markup)).replace(
        'year="', f'year="{escape_attribute(markup)}'
    )
    assert_evaluators_agree(BIB[dtd], list(parse_events(document)))


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize(
    "dtd_text, queries, plans, document",
    [
        (BIB_DTD_STRONG, BIB_QUERIES, BIB["strong"][1], generate_bibliography(num_books=12, seed=4)),
        (BIB_DTD_WEAK, BIB_QUERIES, BIB["weak"][1],
         generate_bibliography(num_books=12, seed=5, conform_to="weak")),
        (AUCTION_DTD, AUCTION_QUERIES, AUCTION[1], generate_auction_site(scale=0.1, seed=6)),
    ],
)
def test_shared_passes(monkeypatch, dtd_text, queries, plans, document, validate):
    live = served(dtd_text, queries, document, validate)
    monkeypatch.setattr(service_session, "EvaluatorSession", ReferenceSession)
    reference = served(dtd_text, queries, document, validate)
    assert live.keys() == reference.keys()
    for index, plan in enumerate(plans):
        assert_matches(live[str(index)], reference[str(index)], plan, f"query {index}")


def test_which_plans_project():
    # Under the strong DTD every bib label is streamed or read whole, so
    # the counters above are compared exactly there.
    assert not any(projects(plan) for plan in BIB["strong"][1])
    assert any(projects(plan) for plan in BIB["weak"][1])
    assert any(projects(plan) for plan in AUCTION[1])
