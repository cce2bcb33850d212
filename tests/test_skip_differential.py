"""Skipping unread subtrees in the tokenizer changes no outcome.

Every run here is made twice: with the skip trie the plan (or the shared
pass's routing index) derives, and with the trie set to ``None``, which
delivers every event.  The two must return the same output bytes, or raise
the same error type with the same message (which carries the offset).
Inputs are every workload query on bib documents (strong and weak DTD) and
on an XMark document, intact and with a mutation placed inside the first
subtree the query skips; runs are pulled from a string, read at chunk sizes
1, 7 and 4096, pushed at random cuts, and served by ``QueryService``, with
validation on and off.  The frozen interpreter of
``tests/_reference_evaluator.py``, fed the unskipped events, must agree
with the closures fed the skipped ones.  Last, byte-mutated documents (the
malformed half of the parser oracle) end in the skip-off outcome: output,
or a typed syntax or validation error.
"""

import io
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_evaluator import ReferenceEvaluator
from repro import FluxEngine, QueryService
from repro.dtd.validator import validate_events
from repro.errors import EvaluationError, XMLSyntaxError, XMLValidationError
from repro.runtime.evaluator import EvaluatorSession, StreamedEvaluator
from repro.runtime.plan import TEXT, needed_view
from repro.service.dispatcher import SharedProjectionIndex
from repro.workloads import generate_auction_site, generate_bibliography, queries_for_workload
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG, BIB_DTD_WEAK
from repro.xmlstream.events import SkippedSubtree, StartElement
from repro.xmlstream.parser import SKIP, SkipTrie, StreamingXMLParser, parse_events

TYPED = (XMLSyntaxError, XMLValidationError, EvaluationError)

BIB_QUERIES = [spec.xquery for spec in queries_for_workload("bib")]
AUCTION_QUERIES = [spec.xquery for spec in queries_for_workload("auction")]

CORPORA = {
    "bib-strong": (BIB_DTD_STRONG, BIB_QUERIES, generate_bibliography(num_books=4, seed=11)),
    "bib-weak": (
        BIB_DTD_WEAK,
        BIB_QUERIES,
        generate_bibliography(num_books=4, seed=12, conform_to="weak"),
    ),
    "xmark": (AUCTION_DTD, AUCTION_QUERIES, generate_auction_site(scale=0.02, seed=13)),
}

#: Text inserted right behind the start tag of the first skipped subtree.
INSERTIONS = {
    "mismatched close tag": "<zz></yy>",
    "bad entity in text": "a&bogus;b",
    "bad entity in attribute": '<zz a="&bogus;"/>',
    "duplicate attribute": '<zz a="1" a="2"/>',
    "two attributes": '<zz a="1" b="2"/>',
    "good entity": "&amp;&#65;",
    "comment": "<!-- c -->",
    "cdata": "<![CDATA[c]]>",
    "processing instruction": "<?p c?>",
    "undeclared child": "<undeclared/>",
    "stray text": "stray",
}


def outcome(run):
    """What ``run()`` returned, or the type and message of the typed error it raised."""
    try:
        return run()
    except TYPED as error:
        return type(error), str(error)


# ------------------------------------------------------------------ runners


def pulled(plan, dtd, source, validate, skip, chunk_size=None):
    def run():
        if chunk_size is None:
            parser = StreamingXMLParser(source, skip=skip)
        else:
            parser = StreamingXMLParser(io.StringIO(source), chunk_size=chunk_size, skip=skip)
        return StreamedEvaluator(plan, dtd, validate=validate).run_to_string(parser.events())[0]

    return outcome(run)


def cuts(document, seed):
    rng = random.Random(seed)
    points = sorted(rng.sample(range(1, len(document)), min(12, len(document) - 1)))
    return [document[a:b] for a, b in zip([0] + points, points + [len(document)])]


def pushed(plan, dtd, document, validate, skip, seed):
    def run():
        parser = StreamingXMLParser.incremental(skip=skip)
        session = EvaluatorSession(plan, dtd, validate=validate).start()
        try:
            for chunk in cuts(document, seed):
                session.feed(parser.feed(chunk))
            session.feed(parser.close())
            return session.finish()[0]
        except BaseException:
            session.abort()
            raise

    return outcome(run)


def solo_outcomes(plan, dtd, document, validate, skip):
    runs = {"pull": pulled(plan, dtd, document, validate, skip)}
    for chunk_size in (1, 7, 4096):
        runs[f"reader {chunk_size}"] = pulled(plan, dtd, document, validate, skip, chunk_size)
    runs["push"] = pushed(plan, dtd, document, validate, skip, seed=len(document))
    return runs


def served(dtd_text, queries, document, validate, seed):
    """``run_pass`` over a file, and a pass fed at random cuts."""

    def run():
        service = QueryService(dtd_text, validate=validate)
        for index, query in enumerate(queries):
            service.register(query, key=str(index))
        whole = {k: r.output for k, r in service.run_pass(io.StringIO(document)).items()}
        shared = service.open_pass()
        try:
            for chunk in cuts(document, seed):
                shared.feed(chunk)
            fed = {k: r.output for k, r in shared.finish().items()}
        except BaseException:
            shared.abort()
            raise
        assert fed == whole
        return whole

    return outcome(run)


# ------------------------------------------------------------------- inputs


def first_skipped(plan, document):
    """Character span of the first non-empty subtree ``plan`` skips, or ``None``."""
    started = 0
    for event in StreamingXMLParser(document, skip=plan.skip_trie()).events():
        if type(event) is StartElement:
            started += 1
        elif type(event) is SkippedSubtree:
            if event.name and not event.tags[0][3]:
                start = [m.start() for m in re.finditer(r"<(?![/!?])", document)][started]
                return start, start + event.size
            started += sum(1 for tag in event.tags if tag[2])
    return None


def mutations(plan, document):
    """``document`` and its mutations inside the first subtree ``plan`` skips."""
    yield "intact", document
    span = first_skipped(plan, document)
    if span is None:
        return
    start, end = span
    inside = document.index(">", start) + 1
    name = re.match(r"<([^\s/>]+)", document[start:]).group(1)
    for label, text in INSERTIONS.items():
        yield label, document[:inside] + text + document[inside:]
    yield "same-name nesting", document[:inside] + f"<{name}></{name}>" + document[inside:]
    yield "incomplete content", document[:inside] + document[end - len(name) - 3 :]
    yield "cut inside", document[: (inside + end) // 2]


def plans(dtd_text, queries):
    engine = FluxEngine(dtd_text)
    return engine.dtd, [engine.compile(query).plan for query in queries]


PLANS = {name: plans(dtd_text, queries) for name, (dtd_text, queries, _) in CORPORA.items()}


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_skip_changes_no_solo_outcome(corpus):
    dtd, compiled = PLANS[corpus]
    document = CORPORA[corpus][2]
    skipped = 0
    for index, plan in enumerate(compiled):
        trie = plan.skip_trie()
        for label, text in mutations(plan, document):
            for validate in (True, False):
                where = f"{corpus} query {index} {label} validate={validate}"
                on = solo_outcomes(plan, dtd, text, validate, trie)
                assert on == solo_outcomes(plan, dtd, text, validate, None), where
                reference = outcome(
                    lambda: ReferenceEvaluator(plan, dtd, validate=validate).run_to_string(
                        parse_events(text)
                    )[0]
                )
                assert on["pull"] == reference, where
        skipped += first_skipped(plan, document) is not None
    assert skipped  # the mutations did land inside skipped subtrees


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_skip_changes_no_served_outcome(monkeypatch, corpus):
    """All queries on one pass, on every query's mutations; and each query
    alone on its own, where the parents' on-first conditions let the pass
    skip more (the skipped child reaches the condition's group as one
    event)."""
    dtd_text, queries, document = CORPORA[corpus]
    dtd, compiled = PLANS[corpus]
    fleets = [(queries, {})]
    for query, plan in zip(queries, compiled):
        fleets[0][1].update(mutations(plan, document))
        fleets.append(([query], dict(mutations(plan, document))))
    for fleet, documents in fleets:
        for label, text in documents.items():
            for validate in (True, False):
                with monkeypatch.context() as patch:
                    on = served(dtd_text, fleet, text, validate, seed=len(text))
                    patch.setattr(SharedProjectionIndex, "skip_trie", lambda self: None)
                    off = served(dtd_text, fleet, text, validate, seed=len(text))
                where = f"{corpus} {len(fleet)} queries {label} validate={validate}"
                assert on == off, where


def test_shared_pass_skips_exactly_what_routing_prunes(monkeypatch):
    """Skipped subtrees are pruned subtrees: the count is the skip-off count."""
    document = generate_auction_site(scale=0.05, seed=3)

    def counts():
        service = QueryService(AUCTION_DTD)
        for index, query in enumerate(AUCTION_QUERIES[:2]):
            service.register(query, key=str(index))
        service.run_pass(io.StringIO(document))
        metrics = service.metrics.last_pass
        return metrics.subtrees_pruned, metrics.skipped_subtrees

    pruned_on, skipped_on = counts()
    monkeypatch.setattr(SharedProjectionIndex, "skip_trie", lambda self: None)
    pruned_off, skipped_off = counts()
    assert pruned_on == pruned_off
    assert skipped_off == 0 < skipped_on <= pruned_on


# -------------------------------------------- the parser oracle, malformed half

_DOCUMENTS = [CORPORA["bib-strong"][2], CORPORA["xmark"][2]]
_MUTATION_BYTES = "<>/&;\"'=!?[]-#x "


@given(
    which=st.sampled_from([0, 1]),
    edits=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.sampled_from(["insert", "replace", "delete"]),
            st.sampled_from(list(_MUTATION_BYTES)),
        ),
        min_size=1,
        max_size=3,
    ),
    query=st.integers(min_value=0, max_value=3),
    validate=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_byte_mutated_documents_end_as_without_skipping(which, edits, query, validate):
    document = _DOCUMENTS[which]
    for where, edit, char in edits:
        at = int(where * (len(document) - 1))
        if edit == "insert":
            document = document[:at] + char + document[at:]
        elif edit == "replace":
            document = document[:at] + char + document[at + 1 :]
        else:
            document = document[:at] + document[at + 1 :]
    dtd, compiled = PLANS["bib-strong" if which == 0 else "xmark"]
    plan = compiled[query]
    for chunk_size in (None, 7):
        on = pulled(plan, dtd, document, validate, plan.skip_trie(), chunk_size)
        assert on == pulled(plan, dtd, document, validate, None, chunk_size)
        assert isinstance(on, str) or on[0] in (XMLSyntaxError, XMLValidationError)


# ------------------------------------------------------------- the parser


def _skipped_tags(events):
    """The delivered events, with the tags of skipped pieces as one list of
    steps: text, open, close (a self-closed tag opens and closes)."""
    folded, steps = [], []
    for event in events:
        if type(event) is not SkippedSubtree:
            folded.append(event)
            continue
        if event.name:
            folded.append(("skipped", event.name))
        for text, close, name, empty in event.tags:
            if text and steps[-1:] != [("text",)]:
                steps.append(("text",))
            if name:
                steps.append(("open", name))
            if close or empty:
                steps.append(("close", close or name))
    return folded, steps


def test_large_skipped_subtree_keeps_the_parser_buffer_bounded():
    chunk_size = 4096
    body = ("<i a='1'>" + "x" * 1000 + "</i><e/>") * 2000
    document = f"<r><junk>{body}</junk><keep>k</keep></r>"
    assert len(document) > 2_000_000
    trie = SkipTrie({"r": SkipTrie({"keep": None})})
    expected = _skipped_tags(StreamingXMLParser(document, skip=trie).events())

    class Reader(io.StringIO):
        peak = 0
        parser = None

        def read(self, size=-1):
            if self.parser is not None:
                Reader.peak = max(Reader.peak, len(self.parser._buffer))
            return super().read(size)

    reader = Reader(document)
    parser = reader.parser = StreamingXMLParser(reader, chunk_size=chunk_size, skip=trie)
    events = list(parser.events())
    assert _skipped_tags(events) == expected
    assert sum(type(e) is SkippedSubtree for e in events) > 2  # it came in pieces
    assert Reader.peak <= 2 * chunk_size + len("<i a='1'>")

    pushed, peak = [], 0
    parser = StreamingXMLParser.incremental(skip=trie)
    for start in range(0, len(document), chunk_size):
        pushed.extend(parser.feed(document[start : start + chunk_size]))
        peak = max(peak, len(parser._buffer))
    pushed.extend(parser.close())
    assert _skipped_tags(pushed) == expected
    assert peak <= 2 * chunk_size + len("<i a='1'>")


def test_plan_skip_tries():
    engine = FluxEngine(AUCTION_DTD)
    plan = engine.compile(AUCTION_QUERIES[2]).plan  # AUC-A3, the join
    # The buffers are read along the BDF's paths; a child the DTD allows
    # only text in is TEXT: left out of the buffers, read by the parser.
    assert plan.read_trie() == {
        "site": {
            "people": {
                "person": {"name": None, "emailaddress": TEXT, "phone": TEXT, "creditcard": TEXT}
            },
            "closed_auctions": {
                "closed_auction": {
                    "seller": TEXT, "buyer": {}, "itemref": TEXT, "price": None, "date": TEXT
                }
            },
        }
    }
    assert needed_view(plan.read_trie()) == {
        "site": {
            "people": {"person": {"name": None}},
            "closed_auctions": {"closed_auction": {"buyer": {}, "price": None}},
        }
    }
    # The parser reads TEXT nodes, so the buffered labels read every child
    # their DTD allows and are read whole.
    trie = plan.skip_trie()
    assert trie == {"site": {"people": None, "closed_auctions": None}}
    assert trie.default is SKIP and trie["site"].default is SKIP
    # A copied binding is read whole, and so is an element whose every
    # child is (a bib holds only books); a whole-document copy reads
    # everything.
    copied = FluxEngine(BIB_DTD_STRONG).compile(
        "<r>{ for $b in $ROOT/bib/book return <x>{ $b }</x> }</r>"
    )
    assert copied.plan.read_trie() == {"bib": {"book": None}}
    assert copied.plan.skip_trie() == {"bib": None}
    everything = FluxEngine(BIB_DTD_STRONG).compile("<r>{ $ROOT }</r>").plan
    assert everything.read_trie() is None and everything.skip_trie() is None


def test_skip_trie_is_derived_not_pickled():
    plan = FluxEngine(BIB_DTD_STRONG).compile(BIB_QUERIES[0]).plan
    trie = plan.skip_trie()
    assert plan.skip_trie() is trie
    assert "_parser_trie" not in plan.__getstate__() and "_read_trie" not in plan.__getstate__()
    shipped = pickle.loads(pickle.dumps(plan))
    assert shipped.skip_trie() == trie and shipped.skip_trie() is not trie


def test_on_first_handlers_fire_at_the_skipped_child():
    """A skipped child that satisfies an on-first condition fires its handler
    before the next event is pulled, as its start tag did: the first author
    rules out an editor (``book`` is ``title, (author+ | editor+), ...``)."""
    query = "<r>{ for $b in $ROOT/bib/book return if (empty($b/editor)) then <x/> else () }</r>"
    plan = FluxEngine(BIB_DTD_STRONG).compile(query).plan
    document = "<bib><book><title>T</title><author><last>L</last><first>F</first></author>"
    document += "<publisher>P</publisher><price>1</price></book></bib>"
    sink = io.StringIO()
    written = []

    def pulled_events():
        for event in StreamingXMLParser(document, skip=plan.skip_trie()).events():
            written.append((event, sink.getvalue()))
            yield event

    StreamedEvaluator(plan, plan.dtd).run(pulled_events(), sink)
    after = [i + 1 for i, (event, _) in enumerate(written) if type(event) is SkippedSubtree]
    assert [written[i][1] for i in after] == ["<r><x></x>"]


@pytest.mark.parametrize("strict", [True, False])
def test_validator_steps_skipped_tags_as_their_events(strict):
    """The shared pass's validator sees skipped subtrees; in strict mode it
    also rejects the text they hide where the DTD allows none."""
    dtd, compiled = PLANS["bib-strong"]
    document = CORPORA["bib-strong"][2]
    plan = compiled[0]
    for label, text in mutations(plan, document):
        verdicts = [
            outcome(lambda: validate_events(StreamingXMLParser(text, skip=skip).events(), dtd, strict))
            for skip in (plan.skip_trie(), None)
        ]
        assert verdicts[0] == verdicts[1], label


@pytest.mark.parametrize("validate", [True, False])
def test_a_root_nobody_reads_is_skipped_whole(monkeypatch, validate):
    document = CORPORA["bib-strong"][2]
    plan = PLANS["xmark"][1][0]
    root = list(StreamingXMLParser(document, skip=plan.skip_trie()).events())[1]
    assert type(root) is SkippedSubtree and root.name == "bib"
    dtd = PLANS["xmark"][0]
    assert solo_outcomes(plan, dtd, document, validate, plan.skip_trie()) == solo_outcomes(
        plan, dtd, document, validate, None
    )
    on = served(AUCTION_DTD, AUCTION_QUERIES[:1], document, validate, seed=1)
    monkeypatch.setattr(SharedProjectionIndex, "skip_trie", lambda self: None)
    assert on == served(AUCTION_DTD, AUCTION_QUERIES[:1], document, validate, seed=1)
