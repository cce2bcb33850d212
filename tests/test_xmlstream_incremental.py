"""Incremental (push-mode) parsing: feed()/close() equals a one-shot parse."""

import io

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import EndElement, StartDocument, StartElement, Text
from repro.xmlstream.parser import StreamingXMLParser, parse_events

from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD


DOCUMENTS = [
    "<a/>",
    "<a>text</a>",
    '<a x="1" y="two"><b/><c>mid</c>tail</a>',
    "<a><!-- comment --><b>x</b><?pi data?></a>",
    "<a><![CDATA[raw < text]]></a>",
    "<a>&amp;&lt;&#65;&#x42;</a>",
    f"<!DOCTYPE bib [{PAPER_FIGURE1_DTD}]>\n{PAPER_DOCUMENT}",
    '<?xml version="1.0"?>\n<root><nested><deep>value</deep></nested></root>',
]


def push_parse(document, size):
    parser = StreamingXMLParser.incremental()
    events = []
    for start in range(0, len(document), size):
        events.extend(parser.feed(document[start : start + size]))
    events.extend(parser.close())
    return parser, events


class TestFeedEqualsOneShot:
    @pytest.mark.parametrize("document", DOCUMENTS)
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 100000])
    def test_chunking_is_invisible(self, document, size):
        _, events = push_parse(document, size)
        assert events == list(parse_events(document))

    def test_doctype_is_captured(self):
        document = f"<!DOCTYPE bib [{PAPER_FIGURE1_DTD}]>\n{PAPER_DOCUMENT}"
        parser, _ = push_parse(document, 5)
        assert parser.doctype_name == "bib"
        assert "<!ELEMENT bib" in parser.doctype_internal_subset

    def test_keep_whitespace(self):
        document = "<a> <b/> </a>"
        parser = StreamingXMLParser.incremental(keep_whitespace=True)
        events = parser.feed(document) + parser.close()
        assert events == list(parse_events(document, keep_whitespace=True))
        assert any(isinstance(e, Text) for e in events)

    def test_events_arrive_as_soon_as_complete(self):
        parser = StreamingXMLParser.incremental()
        first = parser.feed("<a><b>he")
        assert first == [StartDocument(), StartElement("a", ()), StartElement("b", ())]
        second = parser.feed("llo</b>")
        assert second == [Text("hello"), EndElement("b")]
        assert parser.feed("</a>") == [EndElement("a")]

    def test_doctype_documents_stream_instead_of_buffering_to_close(self):
        # A DOCTYPE used to stall push-mode parsing for the rest of the
        # document (its scan requested more input than any feed supplies),
        # silently buffering everything until close().  Events must flow —
        # and the consumed prefix must be dropped — while feeding.
        body = "<book><title>t</title></book>" * 6000
        document = f"<!DOCTYPE bib [{PAPER_FIGURE1_DTD}]>\n<bib>{body}</bib>"
        parser = StreamingXMLParser.incremental()
        events_before_close = 0
        max_buffered = 0
        for start in range(0, len(document), 4096):
            events_before_close += len(parser.feed(document[start : start + 4096]))
            max_buffered = max(max_buffered, len(parser._buffer))
        parser.close()
        assert parser.doctype_name == "bib"
        assert events_before_close > 10000
        assert max_buffered < len(document) // 2

    def test_chunk_spanning_constructs_parse_in_linear_time(self):
        # The scan-resume memo must survive the _find("<") that re-enters a
        # stalled construct on every feed(); without it, a CDATA section (or
        # comment) spanning K chunks rescans from its start each time, O(K^2).
        import time

        payload = "x" * (1 << 22)  # 4 MB
        document = f"<a><![CDATA[{payload}]]></a>"
        parser = StreamingXMLParser.incremental()
        started = time.perf_counter()
        events = []
        for start in range(0, len(document), 1024):
            events.extend(parser.feed(document[start : start + 1024]))
        events.extend(parser.close())
        elapsed = time.perf_counter() - started
        assert events == list(parse_events(document))
        # Quadratic behaviour takes ~30s here; linear well under a second.
        assert elapsed < 5.0

    def test_file_like_source_with_tiny_chunks_still_works(self):
        document = f"<!DOCTYPE bib [{PAPER_FIGURE1_DTD}]>\n{PAPER_DOCUMENT}"
        # chunk_size=3 splits "<!DOCTYPE" across reads; the discriminating
        # lookahead must request more instead of misparsing the declaration.
        parser = StreamingXMLParser(io.StringIO(document), chunk_size=3)
        assert list(parser.events()) == list(parse_events(document))
        assert parser.doctype_name == "bib"


class TestPushModeErrors:
    def test_close_on_unclosed_elements(self):
        parser = StreamingXMLParser.incremental()
        parser.feed("<a><b>")
        with pytest.raises(XMLSyntaxError):
            parser.close()

    def test_close_without_root(self):
        parser = StreamingXMLParser.incremental()
        parser.feed("<!-- only a comment -->")
        with pytest.raises(XMLSyntaxError):
            parser.close()

    def test_multiple_roots_detected_mid_stream(self):
        parser = StreamingXMLParser.incremental()
        parser.feed("<a/>")
        with pytest.raises(XMLSyntaxError):
            parser.feed("<b/>")

    @pytest.mark.parametrize("document", ["<a><b></a></b>", "<a></b>"])
    def test_mismatched_closing_tag_at_every_split_point(self, document):
        one_shot = []
        with pytest.raises(XMLSyntaxError) as expected:
            for event in parse_events(document):
                one_shot.append(event)
        assert "does not match" in str(expected.value)
        for cut in range(len(document) + 1):
            parser = StreamingXMLParser.incremental()
            events = []
            with pytest.raises(XMLSyntaxError) as error:
                events.extend(parser.feed(document[:cut]))
                events.extend(parser.feed(document[cut:]))
                events.extend(parser.close())
            assert events == one_shot
            assert str(error.value) == str(expected.value)

    def test_error_is_deferred_until_the_completed_prefix_is_delivered(self):
        # A one-shot parse yields five events before failing on "</x>"; a
        # single feed() of the same text must deliver the same prefix and
        # surface the error on the next call.
        document = "<a><b/></a></x>"
        one_shot = []
        with pytest.raises(XMLSyntaxError):
            for event in parse_events(document):
                one_shot.append(event)
        parser = StreamingXMLParser.incremental()
        prefix = parser.feed(document)
        assert prefix == one_shot
        with pytest.raises(XMLSyntaxError):
            parser.close()

    def test_feed_after_close_rejected(self):
        parser = StreamingXMLParser.incremental()
        parser.feed("<a/>")
        parser.close()
        with pytest.raises(ValueError):
            parser.feed("more")

    def test_events_requires_a_source(self):
        with pytest.raises(ValueError):
            list(StreamingXMLParser.incremental().events())

    def test_feed_requires_push_mode(self):
        with pytest.raises(ValueError):
            StreamingXMLParser("<a/>").feed("x")
        with pytest.raises(ValueError):
            StreamingXMLParser("<a/>").close()
