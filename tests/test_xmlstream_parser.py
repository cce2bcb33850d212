"""Unit tests for the streaming XML parser."""

import io

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.parser import (
    StreamingXMLParser,
    parse_events,
    resolve_entities,
)


def events_of(xml, **kwargs):
    return list(parse_events(xml, **kwargs))


class TestBasicParsing:
    def test_single_empty_element(self):
        events = events_of("<a/>")
        assert events == [StartDocument(), StartElement("a"), EndElement("a"), EndDocument()]

    def test_element_with_text(self):
        events = events_of("<a>hello</a>")
        assert events == [
            StartDocument(),
            StartElement("a"),
            Text("hello"),
            EndElement("a"),
            EndDocument(),
        ]

    def test_nested_elements(self):
        events = events_of("<a><b>x</b><c/></a>")
        names = [e.name for e in events if isinstance(e, StartElement)]
        assert names == ["a", "b", "c"]

    def test_attributes_double_and_single_quotes(self):
        events = events_of("""<a x="1" y='two'/>""")
        start = events[1]
        assert start.attributes == {"x": "1", "y": "two"}

    def test_attribute_entity_resolution(self):
        events = events_of('<a title="a &amp; b"/>')
        assert events[1].attributes["title"] == "a & b"

    def test_whitespace_between_elements_dropped_by_default(self):
        events = events_of("<a>\n  <b>x</b>\n</a>")
        assert not any(isinstance(e, Text) and not e.text.strip() for e in events)

    def test_whitespace_preserved_when_requested(self):
        events = events_of("<a>\n  <b>x</b>\n</a>", keep_whitespace=True)
        assert any(isinstance(e, Text) and e.text.strip() == "" for e in events)

    def test_self_closing_element_emits_both_tags(self):
        events = events_of("<a><b/></a>")
        assert EndElement("b") in events

    def test_mixed_content_order(self):
        events = events_of("<p>one<b>two</b>three</p>")
        kinds = [type(e).__name__ for e in events[1:-1]]
        assert kinds == ["StartElement", "Text", "StartElement", "Text", "EndElement", "Text", "EndElement"]


class TestEntities:
    def test_predefined_entities_in_text(self):
        events = events_of("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>")
        assert events[2] == Text("1 < 2 && 3 > 2")

    def test_numeric_character_references(self):
        assert resolve_entities("&#65;&#x42;") == "AB"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            events_of("<a>&unknown;</a>")

    def test_unterminated_entity_raises(self):
        with pytest.raises(XMLSyntaxError):
            events_of("<a>&amp</a>")

    @pytest.mark.parametrize("reference", ["&#x1_0;", "&# 65;", "&#+65;", "&#1114112;"])
    def test_character_references_are_digits_in_range(self, reference):
        # int() alone takes "_", whitespace and a sign; chr() bounds the range.
        with pytest.raises(XMLSyntaxError) as error:
            resolve_entities("ab" + reference, offset=10)
        assert str(error.value) == f"bad character reference {reference} (at offset 12)"
        with pytest.raises(XMLSyntaxError):
            events_of(f"<a>{reference}</a>")

    def test_quote_and_apos(self):
        assert resolve_entities("&quot;&apos;") == "\"'"


class TestStructuralConstructs:
    def test_comments_are_skipped(self):
        events = events_of("<a><!-- a comment --><b/></a>")
        assert not any(isinstance(e, Text) for e in events)

    def test_processing_instruction_and_xml_decl_skipped(self):
        events = events_of('<?xml version="1.0"?><?pi data?><a/>')
        assert events[1] == StartElement("a")

    def test_cdata_contributes_text(self):
        events = events_of("<a><![CDATA[<not parsed> & raw]]></a>")
        assert events[2] == Text("<not parsed> & raw")

    def test_doctype_internal_subset_is_captured(self):
        parser = StreamingXMLParser('<!DOCTYPE bib [<!ELEMENT bib (book)*>]><bib/>')
        list(parser.events())
        assert parser.doctype_name == "bib"
        assert "<!ELEMENT bib" in parser.doctype_internal_subset

    def test_doctype_without_subset(self):
        parser = StreamingXMLParser('<!DOCTYPE bib SYSTEM "bib.dtd"><bib/>')
        list(parser.events())
        assert parser.doctype_name == "bib"
        assert parser.doctype_internal_subset is None


class TestErrors:
    @pytest.mark.parametrize(
        "xml",
        [
            "<a><b></a>",          # mismatched nesting, and unclosed
            "<a><b></a></b>",      # crossed nesting, every element closed
            "<a></b>",             # closing tag names another element
            "<a>",                 # unclosed element
            "</a>",                # stray closing tag
            "<a></a><b></b>",      # two root elements
            "text only",           # no root element
            "<a x=1/>",            # unquoted attribute
            "<a x/>",              # attribute without value
            "<>bad</>",            # empty tag name
            "<a><!-- unterminated </a>",
        ],
    )
    def test_malformed_documents_raise(self, xml):
        with pytest.raises(XMLSyntaxError):
            events_of(xml)

    def test_mismatched_closing_tag_names_both_elements(self):
        with pytest.raises(XMLSyntaxError) as error:
            events_of("<a><b></a></b>")
        assert str(error.value) == "closing tag </a> does not match <b> (at offset 10)"

    @pytest.mark.parametrize(
        "xml, offset",
        [
            ('<a x="1" x="2"/>', 0),
            ("<r><a x='1' y='2' x='3'>t</a></r>", 3),
            ('<r>text<a\n x="1"\n x="1"></a></r>', 7),
        ],
    )
    def test_duplicate_attribute_rejected_in_every_mode(self, xml, offset):
        # Not well formed (expat refuses it too); accepted, the stream copy
        # would write both pairs and the tree keep only the last.
        message = f"duplicate attribute 'x' (at offset {offset})"
        runs = [lambda: StreamingXMLParser(xml).events()]
        for size in (1, 7):
            runs.append(lambda size=size: StreamingXMLParser(io.StringIO(xml), chunk_size=size).events())
        for run in runs:
            with pytest.raises(XMLSyntaxError) as error:
                list(run())
            assert str(error.value) == message
        for cut in range(len(xml) + 1):
            parser = StreamingXMLParser.incremental()
            with pytest.raises(XMLSyntaxError) as error:
                parser.feed(xml[:cut])
                parser.feed(xml[cut:])
                parser.close()
            assert str(error.value) == message

    def test_repeated_value_under_two_names_is_fine(self):
        assert events_of('<a x="1" y="1"/>')[1] == StartElement("a", (("x", "1"), ("y", "1")))

    def test_text_outside_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            events_of("<a/>trailing")

    def test_error_carries_offset(self):
        try:
            events_of("<a>&nope;</a>")
        except XMLSyntaxError as error:
            assert error.offset >= 0
        else:  # pragma: no cover
            pytest.fail("expected XMLSyntaxError")


class TestFileLikeInput:
    def test_parsing_from_file_object(self):
        source = io.StringIO("<a><b>hi</b></a>")
        events = list(parse_events(source))
        assert events[1] == StartElement("a")
        assert Text("hi") in events

    def test_chunked_reading_matches_string_parsing(self):
        xml = "<root>" + "".join(f"<item n=\"{i}\">value {i}</item>" for i in range(200)) + "</root>"
        from_string = list(parse_events(xml))
        parser = StreamingXMLParser(io.StringIO(xml), chunk_size=37)
        from_file = list(parser.events())
        assert from_string == from_file

    def test_large_document_streams(self, small_bibliography):
        count = sum(1 for e in parse_events(small_bibliography) if isinstance(e, StartElement))
        assert count > 20


class TestTokenPatternSeam:
    """What the bulk token pattern hands to the character-level fallback.

    The expectations are the behaviour of the parser before the pattern
    existed; the pattern accepts a subset, so each of these must still come
    out of ``_parse_markup`` unchanged.
    """

    @pytest.mark.parametrize(
        "body, events",
        [
            # non-ASCII names
            ('<é à="1">ü</é>', [StartElement("é", (("à", "1"),)), Text("ü"), EndElement("é")]),
            # no whitespace between attributes
            ('<a x="1"y="2"/>', [StartElement("a", (("x", "1"), ("y", "2"))), EndElement("a")]),
            # "<" inside a value
            ('<a x="a<b"/>', [StartElement("a", (("x", "a<b"),)), EndElement("a")]),
            # whitespace around a closing tag's name
            ("<a>t</ a >", [StartElement("a"), Text("t"), EndElement("a")]),
            # attribute names the lenient loop takes
            ('<a 1x="v" -y="w"/>', [StartElement("a", (("1x", "v"), ("-y", "w"))), EndElement("a")]),
            # whitespace that is not one of XML's four characters
            ('<a\x0bx="1"/>\x0c', [StartElement("a", (("x", "1"),)), EndElement("a")]),
            # the constructs the pattern never starts
            ("<!--c--><a/><?p d?><![CDATA[<x>]]>", [StartElement("a"), EndElement("a"), Text("<x>")]),
        ],
    )
    def test_lenient_forms_still_parse(self, body, events):
        expected = [StartDocument(), StartElement("r"), *events, EndElement("r"), EndDocument()]
        assert events_of(f"<r>{body}</r>") == expected

    @pytest.mark.parametrize(
        "xml, message",
        [
            ("<r/>tail", "character data outside the root element"),
            ("lead<r/>", "character data outside the root element"),
            ("<r>&nope;</r>", "unknown entity &nope; (at offset 0)"),
            ("<r><a/>t&nope;<b/></r>", "unknown entity &nope; (at offset 1)"),
            ('<r><a x="&nope;"/></r>', "unknown entity &nope; (at offset 0)"),
            ('<r><a x="1>2"/></r>', "unterminated value for attribute 'x' (at offset 3)"),
            ("<r><a x=1/></r>", "attribute 'x' value must be quoted (at offset 3)"),
            ("<r><a x/></r>", "attribute 'x' is missing a value (at offset 3)"),
            ("<r><a / ></r>", "malformed attribute in <a /> (at offset 3)"),
            ("<r><a/b></r>", "malformed attribute in <a/b> (at offset 3)"),
            ("<r></></r>", "empty closing tag (at offset 3)"),
            ("<r><a/></r></r>", "unexpected closing tag </r> (at offset 15)"),
        ],
    )
    def test_errors_keep_message_and_offset(self, xml, message):
        with pytest.raises(XMLSyntaxError) as error:
            events_of(xml)
        assert str(error.value) == message

    def test_a_tag_split_at_any_byte_is_delivered_once_complete(self):
        document = '<r><a x="1">t</a></r>'
        delivered = []
        for cut in range(len(document) + 1):
            parser = StreamingXMLParser.incremental()
            first = parser.feed(document[:cut])
            assert first + parser.feed(document[cut:]) + parser.close() == events_of(document)
            delivered.append(len(first))
        # StartDocument at once; text as soon as the "<" after it arrives.
        assert delivered == [1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6]

    def test_an_error_behind_completed_events_waits_for_the_next_call(self):
        parser = StreamingXMLParser.incremental()
        assert parser.feed("<r><a/>t<b x=1/>") == [
            StartDocument(),
            StartElement("r"),
            StartElement("a"),
            EndElement("a"),
        ]
        with pytest.raises(XMLSyntaxError) as error:
            parser.feed("</r>")
        assert str(error.value) == "attribute 'x' value must be quoted (at offset 8)"

    def test_reader_buffer_stays_within_two_chunks_and_a_construct(self):
        item = '<item n="12345">value 12345</item>'
        document = "<r>" + item * (2_000_000 // len(item)) + "</r>"
        parser = StreamingXMLParser(io.StringIO(document), chunk_size=4096)
        held = 0
        for _ in parser.events():
            held = max(held, len(parser._buffer))
        assert held <= 2 * 4096 + len(item)

    def test_pull_mode_tokenizes_one_batch_per_step(self):
        # cli._load_dtd and statically empty plans stop after a few events;
        # they must not pay for the whole document.
        item = "<i>x</i>"
        parser = StreamingXMLParser("<r>" + item * 131072 + "</r>")
        events = parser.events()
        assert [next(events), next(events)] == [StartDocument(), StartElement("r")]
        assert parser._pos == len("<r>")
        next(events)
        assert parser._pos <= 512 * len(item)
