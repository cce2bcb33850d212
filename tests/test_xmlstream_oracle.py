"""``StreamingXMLParser`` against an independent oracle: ``xml.parsers.expat``.

Every other parser test compares the parser with itself (chunked against
one-shot) or with hand-written expectations.  Here the start/end/character
data callbacks of expat are the reference, over the workload generators and
over drawn well-formed documents, in pull, reader and incremental mode.

Both sides are normalized the same way — adjacent text merged, then
whitespace-only text dropped — because expat splits character data where it
likes and the parser splits it at comments, PIs and CDATA sections.  The
drawn documents stay inside what the two agree on by design: no ``\\r``
(expat normalizes line ends), no literal tab or newline in attribute values
(expat normalizes them to spaces), no ``>`` in attribute values (the parser's
documented restriction).
"""

import io
from xml.parsers import expat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.workloads import generate_auction_site, generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.xmlstream.events import EndElement, StartElement, Text
from repro.xmlstream.parser import StreamingXMLParser


def normalized(events):
    """Element and text events, adjacent text merged, blank text dropped."""
    out = []
    for event in events:
        if isinstance(event, Text) and out and isinstance(out[-1], Text):
            out[-1] = Text(out[-1].text + event.text)
        elif isinstance(event, (StartElement, EndElement, Text)):
            out.append(event)
    return [e for e in out if not (isinstance(e, Text) and not e.text.strip())]


def expat_events(document):
    events = []
    parser = expat.ParserCreate()
    parser.ordered_attributes = True
    parser.StartElementHandler = lambda name, attrs: events.append(
        StartElement(name, tuple(zip(attrs[::2], attrs[1::2])))
    )
    parser.EndElementHandler = lambda name: events.append(EndElement(name))
    parser.CharacterDataHandler = lambda data: events.append(Text(data))
    parser.Parse(document, True)
    return normalized(events)


def pushed(document, cuts, keep_whitespace):
    parser = StreamingXMLParser.incremental(keep_whitespace=keep_whitespace)
    events = []
    for start, end in zip([0, *cuts], [*cuts, len(document)]):
        events.extend(parser.feed(document[start:end]))
    return events + parser.close()


def assert_matches_expat(document, cuts, keep_whitespace):
    expected = expat_events(document)
    runs = {"pull": StreamingXMLParser(document, keep_whitespace=keep_whitespace).events()}
    for size in (1, 7, 4096):
        runs[f"reader chunk_size={size}"] = StreamingXMLParser(
            io.StringIO(document), keep_whitespace=keep_whitespace, chunk_size=size
        ).events()
    runs[f"incremental cuts={cuts}"] = pushed(document, cuts, keep_whitespace)
    for mode, events in runs.items():
        assert normalized(events) == expected, mode


# ------------------------------------------------------- workload generators


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bibliography_documents(seed):
    body = generate_bibliography(num_books=25, seed=seed)
    document = f"<!DOCTYPE bib [{BIB_DTD_STRONG}]>\n{body}"
    assert_matches_expat(document, [len(document) // 3, len(document) // 2], False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_xmark_documents(seed):
    document = generate_auction_site(scale=0.05, seed=seed)
    assert_matches_expat(document, [1, 100, len(document) - 1], False)


# ------------------------------------------------------- rejected by both


@pytest.mark.parametrize(
    "document",
    [
        '<a x="1" x="2"/>',            # an attribute name twice in one tag
        "<a><b></a></b>",              # crossed nesting
        "<a>&#x1_0;</a>",              # character reference with a non-digit
        "<a></a><b></b>",              # two root elements
    ],
)
def test_not_well_formed_documents_are_rejected_by_both(document):
    with pytest.raises(expat.ExpatError):
        expat_events(document)
    with pytest.raises(XMLSyntaxError):
        list(StreamingXMLParser(document).events())
    with pytest.raises(XMLSyntaxError):
        pushed(document, [len(document) // 2], False)


# ------------------------------------------------ drawn well-formed documents

NAMES = st.sampled_from(["a", "b", "item", "x-1", "n_s:t", "A.b", "é", "ñandú"])
REFERENCES = ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x42;", "&#xE9;", "&#10;"]
SPACE = st.sampled_from(["", " ", "\n", "  \t"])
GAP = st.sampled_from([" ", "\n", " \t "])  # mandatory whitespace


def pieces(alphabet, max_size=6):
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map("".join)


TEXT = pieces(["t", "Z", "7", " ", "\n", "\t", ">", "'", '"', "é", *REFERENCES])


@st.composite
def attributes(draw):
    names = draw(st.lists(NAMES, max_size=3, unique=True))
    out = ""
    for name in names:
        quote = draw(st.sampled_from("\"'"))
        other = "'" if quote == '"' else '"'
        value = draw(pieces(["v", "1", " ", "/", "=", other, "é", *REFERENCES], max_size=4))
        out += f"{draw(GAP)}{name}{draw(SPACE)}={draw(SPACE)}{quote}{value}{quote}"
    return out


COMMENT = pieces(["c", " ", "<", "&", "- "]).map(lambda body: f"<!--{body}-->")
CDATA = pieces(["d", " ", "<", "&", "]", ">"]).map(
    lambda body: f"<![CDATA[{body.replace(']]>', ']] >')}]]>"
)
PI = st.tuples(st.sampled_from(["p", "go"]), pieces(["i", " ", "<", "?x"])).map(
    lambda pi: f"<?{pi[0]} {pi[1]}?>"
)


def elements(children):
    @st.composite
    def element(draw):
        name, attrs = draw(NAMES), draw(attributes())
        body = "".join(draw(st.lists(children, max_size=4)))
        if not body and draw(st.booleans()):
            return f"<{name}{attrs}{draw(SPACE)}/>"
        return f"<{name}{attrs}{draw(SPACE)}>{body}</{name}{draw(SPACE)}>"

    return element()


CONTENT = st.recursive(
    st.one_of(TEXT, COMMENT, CDATA, PI), lambda inner: st.one_of(elements(inner), inner), max_leaves=12
)


@st.composite
def documents(draw):
    declaration = draw(st.sampled_from(["", '<?xml version="1.0"?>']))
    doctype = draw(st.sampled_from(["", "<!DOCTYPE a [<!ELEMENT a ANY>]>"]))
    misc = st.lists(st.one_of(COMMENT, PI, GAP), max_size=2).map("".join)
    document = declaration + draw(misc) + doctype + draw(misc) + draw(elements(CONTENT)) + draw(misc)
    cuts = draw(st.lists(st.integers(0, len(document)), max_size=8).map(sorted))
    return document, cuts


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_drawn_documents(drawn):
    document, cuts = drawn
    # keep_whitespace: the parser drops blank text piece by piece, so only
    # with every piece kept is "merge, then drop blanks" the same on both sides.
    assert_matches_expat(document, cuts, True)
