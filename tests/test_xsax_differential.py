"""The table-driven XSAX reader and validator against their list-based oracles.

``tests/_reference_xsax.py`` holds the reader and the validator as they were
before their per-element lookup tables: everything re-derived per event from
the DTD's general representation.  Here the live classes must agree with
them event for event, counter for counter and error for error (type and
message) — over workload and drawn documents, every workload query's
registered conditions, validation on and off, no DTD at all, documents that
violate the DTD, in pull mode and fed one event at a time through the push
source (where a starved pull is retried and must not step a state twice).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_xsax import ReferenceValidator, ReferenceXSAXReader
from repro import FluxEngine
from repro.dtd.parser import parse_dtd
from repro.dtd.validator import StreamingValidator
from repro.errors import XMLValidationError
from repro.runtime.evaluator import StarvedInput, _InlineSource
from repro.runtime.stats import RuntimeStats
from repro.runtime.xsax import ConditionRegistry, XSAXReader
from repro.workloads import generate_auction_site, generate_bibliography, queries_for_workload
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG, BIB_DTD_WEAK
from repro.xmlstream.events import EndDocument, EndElement, StartDocument, StartElement, Text
from repro.xmlstream.parser import parse_events
from repro.xquery.analysis import DOCUMENT_TYPE, WHOLE_SUBTREE

BIB = parse_dtd(BIB_DTD_STRONG)
WEAK = parse_dtd(BIB_DTD_WEAK)
AUCTION = parse_dtd(AUCTION_DTD)
MIXED = parse_dtd(
    "<!ELEMENT r (a, b*, c?)><!ELEMENT a ANY><!ELEMENT b (#PCDATA | a)*>"
    "<!ELEMENT c EMPTY>"
)


def hand_made_registry():
    """Label sets the compiler seldom emits: empty, whole-subtree, document-level."""
    registry = ConditionRegistry()
    for element_type, labels in (
        (DOCUMENT_TYPE, ()),
        (DOCUMENT_TYPE, ("bib",)),
        (DOCUMENT_TYPE, ("r", "site")),
        (DOCUMENT_TYPE, (WHOLE_SUBTREE,)),
        ("bib", ("book",)),
        ("book", ()),
        ("book", ("title",)),
        ("book", ("author", "editor")),
        ("book", ("price", WHOLE_SUBTREE)),
        ("book", ("nowhere",)),
        ("r", ("a",)),
        ("r", ("b", "c")),
        ("a", ("a",)),
        ("b", ()),
        ("undeclared", ("x",)),
        ("undeclared", ()),
        ("site", ("regions", "people")),
        ("person", ()),
        ("open_auction", ("bidder",)),
        ("open_auction", ("seller", "nowhere")),
    ):
        registry.register(element_type, frozenset(labels))
    return registry


def registries(dtd, workload):
    found = [(spec.key, FluxEngine(dtd).compile(spec.xquery).entry.plan.conditions)
             for spec in queries_for_workload(workload)]
    return found + [("hand-made", hand_made_registry()), ("none", None)]


BIB_REGISTRIES = registries(BIB, "bib")
AUCTION_REGISTRIES = registries(AUCTION, "auction")


# --------------------------------------------------------------- the runners


def pulled(reader_class, events, dtd, conditions, validate):
    stats = RuntimeStats()
    reader = reader_class(iter(events), dtd, conditions, validate=validate, stats=stats)
    out, error = [], None
    try:
        for event in reader:
            out.append(event)
    except XMLValidationError as exc:
        error = (type(exc), str(exc))
    return out, (stats.events_processed, stats.onfirst_events, stats.elements_parsed), error


def pushed(reader_class, events, dtd, conditions, validate):
    """One event per feed; every starved pull is made twice."""
    stats = RuntimeStats()
    source = _InlineSource()
    reader = reader_class(source, dtd, conditions, validate=validate, stats=stats)
    out, error = [], None

    def drain():
        while True:
            try:
                out.append(next(reader))
            except StarvedInput:
                with pytest.raises(StarvedInput):
                    next(reader)
                return
            except StopIteration:
                return

    try:
        drain()
        for event in events:
            source.extend([event])
            drain()
        source.close()
        drain()
    except XMLValidationError as exc:
        error = (type(exc), str(exc))
    return out, (stats.events_processed, stats.onfirst_events, stats.elements_parsed), error


def assert_readers_agree(events, dtd, conditions, label=""):
    for validate in (True, False):
        expected = pulled(ReferenceXSAXReader, events, dtd, conditions, validate)
        for run in (pulled, pushed):
            got = run(XSAXReader, events, dtd, conditions, validate)
            assert got == expected, f"{label} validate={validate} {run.__name__}"


def validated(validator_class, events, dtd, strict):
    validator = validator_class(dtd, strict=strict)
    trail, error = [], None
    try:
        for event in events:
            validator.feed(event)
            trail.append((validator.elements_validated, validator.depth, validator.current_state()))
    except XMLValidationError as exc:
        error = (type(exc), str(exc))
    return trail, error


def assert_validators_agree(events, dtd):
    for strict in (False, True):
        assert validated(StreamingValidator, events, dtd, strict) == validated(
            ReferenceValidator, events, dtd, strict
        ), f"strict={strict}"


# ------------------------------------------------------------------ mutations


def mutations(events, root, foreign):
    """``events`` and DTD-violating variants of it, by name."""
    yield "intact", events
    starts = [i for i, e in enumerate(events) if type(e) is StartElement]
    ends = [i for i, e in enumerate(events) if type(e) is EndElement]
    wrong_root = list(events)
    wrong_root[starts[0]] = StartElement(foreign, events[starts[0]].attrs)
    wrong_root[ends[-1]] = EndElement(foreign)
    yield "wrong root", wrong_root
    # Before a later sibling, so the parent has left its start state.
    later = [i for i in starts if type(events[i - 1]) is EndElement]
    for at in (later[0], later[len(later) // 2], later[-1]):
        yield f"disallowed child at {at}", [
            *events[:at], StartElement(root), EndElement(root), *events[at:]
        ]
        yield f"undeclared child at {at}", [
            *events[:at], StartElement("undeclared"), Text("t"), EndElement("undeclared"),
            *events[at:],
        ]
    # Drop one whole leaf element (start, text, end) from the middle.
    leaf = next(i for i in starts[len(starts) // 2:] if type(events[i + 2]) is EndElement)
    yield "incomplete content", events[:leaf] + events[leaf + 3:]
    mismatched = list(events)
    mismatched[ends[len(ends) // 2]] = EndElement("mismatch")
    yield "mismatched end tag", mismatched
    yield "end tag with nothing open", [events[0], EndElement(root), *events[1:]]
    yield "second root", [*events[:-1], StartElement(root), EndElement(root), events[-1]]
    yield "no document events", events[1:-1]
    yield "cut short", events[: len(events) // 2] + [EndDocument()]
    yield "text outside the root", [events[0], Text("stray"), *events[1:]]


# ------------------------------------------------------------ workload inputs


@pytest.mark.parametrize("seed", [1, 2])
def test_bibliography_documents(seed):
    events = list(parse_events(generate_bibliography(num_books=6, seed=seed)))
    # The comparison has something to compare: conditions do fire here.
    assert all(
        pulled(XSAXReader, events, BIB, conditions, True)[1][1] > 0
        for key, conditions in BIB_REGISTRIES
        if key in ("BIB-Q1", "BIB-Q5", "hand-made")
    )
    for name, variant in mutations(events, "bib", "price"):
        assert_validators_agree(variant, BIB)
        for key, conditions in BIB_REGISTRIES:
            for dtd in (BIB, WEAK, None):
                assert_readers_agree(variant, dtd, conditions, f"{name} {key}")


def test_xmark_documents():
    events = list(parse_events(generate_auction_site(scale=0.05, seed=3)))
    for name, variant in mutations(events, "site", "person"):
        assert_validators_agree(variant, AUCTION)
        for key, conditions in AUCTION_REGISTRIES:
            for dtd in (AUCTION, None):
                assert_readers_agree(variant, dtd, conditions, f"{name} {key}")


def test_a_registry_serves_two_schemas_and_later_registrations():
    events = list(parse_events(generate_bibliography(num_books=3, seed=5)))
    registry = hand_made_registry()
    for dtd in (BIB, WEAK, BIB, None):
        assert_readers_agree(events, dtd, registry)
    registry.register("book", frozenset({"publisher"}))
    assert_readers_agree(events, BIB, registry)


# ------------------------------------------------------------ drawn documents

NAMES = st.sampled_from(
    ["bib", "book", "title", "author", "editor", "publisher", "price", "r", "a", "b", "c",
     "undeclared"]
)


@st.composite
def subtrees(draw, depth=3):
    name = draw(NAMES)
    body = []
    if depth:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if draw(st.integers(min_value=0, max_value=3)):
                body.extend(draw(subtrees(depth=depth - 1)))
            else:
                body.append(Text(draw(st.sampled_from(["t", " ", "x y"]))))
    return [StartElement(name), *body, EndElement(name)]


DOCUMENTS = st.lists(subtrees(), min_size=1, max_size=2).map(
    lambda roots: [StartDocument(), *[e for root in roots for e in root], EndDocument()]
)


@given(DOCUMENTS)
@settings(max_examples=40, deadline=None)
def test_drawn_documents(events):
    registry = hand_made_registry()
    for dtd in (BIB, WEAK, MIXED, None):
        assert_readers_agree(events, dtd, registry)
        assert_readers_agree(events, dtd, None)
        if dtd is not None:
            assert_validators_agree(events, dtd)
