"""Hand-written streaming XML parser.

The parser produces the event vocabulary of :mod:`repro.xmlstream.events`
lazily, one event at a time, without ever materializing the document.  It is
deliberately self-contained (no :mod:`xml.sax`) so the whole stack — from
bytes to query results — is implemented in this repository, and so the
benchmarks measure a single, consistent parsing substrate for every engine.

Supported XML subset
--------------------

* elements (a closing tag must name the element it closes), attributes
  (single- or double-quoted), character data,
* the five predefined entities plus decimal/hexadecimal character references,
* comments, processing instructions, CDATA sections, and the XML declaration
  (all skipped, CDATA contributing its literal text),
* an optional ``<!DOCTYPE ...>`` whose *internal subset* is captured verbatim
  on the parser instance (:attr:`StreamingXMLParser.doctype_internal_subset`)
  so documents can carry their own DTD,
* whitespace-only text between elements is dropped unless
  ``keep_whitespace=True``.

Out of scope (as for the paper): namespaces, external entities, and DTD-driven
attribute defaulting.

Incremental (push) mode
-----------------------

:meth:`StreamingXMLParser.incremental` builds a parser with no source; the
caller pushes text with :meth:`StreamingXMLParser.feed`, which returns the
events that became complete, and ends the document with
:meth:`StreamingXMLParser.close`.  Events are identical to a one-shot parse of
the concatenated chunks regardless of where the chunk boundaries fall — this
is what the multi-query service uses to ingest documents as they arrive.
"""

from __future__ import annotations

import io
import re
from typing import Iterator, List, Optional, Tuple, Union

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    SkippedSubtree,
    StartDocument,
    StartElement,
    Text,
)

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")

_CHAR_REFERENCE = re.compile(r"#(?:[xX]([0-9A-Fa-f]+)|([0-9]+))")

# The common tokens, one match each in _scan():
#   text? '<' name (ws attr '=' quoted)* ws? '/'? '>'   and   text? '</' name ws? '>'
# Deliberately narrower than _parse_markup (ASCII names, the four XML
# whitespace characters, whitespace before every attribute, no "<" or ">" in
# a value): what the pattern does not match is left to _parse_markup, which
# alone decides what is an error, so the two only have to agree on the
# events of what the pattern does match.
_WS = r"[ \t\r\n]"
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_TOKEN = re.compile(
    rf"([^<]*)<(?:/({_NAME}){_WS}*>"
    rf"|({_NAME})((?:{_WS}+{_NAME}{_WS}*={_WS}*(?:\"[^\"<>]*\"|'[^'<>]*'))*){_WS}*(/?)>)"
)
_ATTRIBUTE = re.compile(rf"({_NAME}){_WS}*={_WS}*(?:\"([^\"]*)\"|'([^']*)')")
# Most events one step returns: keeps pull mode lazy and the events in
# flight bounded however much input is buffered.
_BATCH = 512
# One tag of a skipped subtree, with the text in front of it, in one match
# of _skip_scan():  text? '<' name (ws attr '=' quoted)? ws? '/'? '>'  and
# text? '</' name ws? '>'.  Narrower still than _TOKEN: no "&" anywhere
# (references are resolved, and rejected, by the character-level code),
# at most one attribute (the duplicate-attribute check needs two).  The
# first group is a non-whitespace character of the text, if it has one.
_SKIP_TAG = re.compile(
    r"(?:\s*+([^<&\s]))?[^<&]*+"
    rf"<(?:/({_NAME}){_WS}*>"
    rf"|({_NAME})(?:{_WS}+{_NAME}{_WS}*={_WS}*(?:\"[^\"<>&]*\"|'[^'<>&]*'))?{_WS}*(/?)>)"
)


class _Skip:
    """The value of a :class:`SkipTrie` entry whose subtree nobody reads."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SKIP"


#: A child label whose whole subtree the parser may skip.
SKIP = _Skip()


class SkipTrie(dict):
    """What a consumer reads below one element: the parser's skip contract.

    ``{child label: node}`` for the children that are read, where a node is
    another :class:`SkipTrie`, or ``None`` when the child's whole subtree is
    read; :attr:`default` (normally :data:`SKIP`) stands for every label not
    listed.  The trie a parser is given describes the document node, so
    its labels are root element names.  A trie may be cyclic (recursive
    element types).
    """

    __slots__ = ("default",)

    def __init__(self, entries=(), default: object = SKIP) -> None:
        super().__init__(entries)
        self.default = default

    def __repr__(self) -> str:
        # One level: a cyclic trie has no finite nested rendering.
        return f"SkipTrie({sorted(self)!r}, default={self.default!r:.20})"


class _Incomplete(Exception):
    """Internal: the buffered input ends inside an unfinished construct.

    Only raised in incremental mode; the main loop catches it and waits for
    the next :meth:`StreamingXMLParser.feed` call.  Parsing methods never
    consume input before raising, so a retry with more data is safe.
    """


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


def resolve_entities(text: str, offset: int = 0) -> str:
    """Replace entity and character references in ``text``.

    ``offset`` is only used to report useful positions in error messages.
    """
    if "&" not in text:
        return text
    parts: List[str] = []
    i = 0
    length = len(text)
    while i < length:
        amp = text.find("&", i)
        if amp < 0:
            parts.append(text[i:])
            break
        parts.append(text[i:amp])
        semi = text.find(";", amp + 1)
        if semi < 0:
            raise XMLSyntaxError("unterminated entity reference", offset + amp)
        name = text[amp + 1 : semi]
        if name.startswith("#"):
            # Digits only: int() alone would also take "_", whitespace, a
            # sign and non-ASCII digits.
            reference = _CHAR_REFERENCE.fullmatch(name)
            try:
                if reference is None:
                    raise ValueError(name)
                hexadecimal, decimal = reference.groups()
                parts.append(chr(int(hexadecimal, 16) if hexadecimal else int(decimal)))
            except ValueError as exc:
                raise XMLSyntaxError(f"bad character reference &{name};", offset + amp) from exc
        elif name in _PREDEFINED_ENTITIES:
            parts.append(_PREDEFINED_ENTITIES[name])
        else:
            raise XMLSyntaxError(f"unknown entity &{name};", offset + amp)
        i = semi + 1
    return "".join(parts)


class StreamingXMLParser:
    """Incremental XML parser yielding :class:`~repro.xmlstream.events.Event`.

    The parser reads from a string or a text file-like object.  File-like
    input is read in chunks so that arbitrarily large documents can be
    processed with bounded parser-side memory; only the engines' explicit
    buffers decide how much of the document is retained.

    Parameters
    ----------
    source:
        XML text, a file-like object with a ``read(size)`` method, or
        ``None`` for incremental (push) mode, where input arrives through
        :meth:`feed` / :meth:`close`.
    keep_whitespace:
        When ``True``, whitespace-only character data between elements is
        reported as :class:`Text` events instead of being dropped.
    chunk_size:
        Read granularity for file-like sources.
    skip:
        The :class:`SkipTrie` of the document node, or ``None`` (the
        default) to deliver every event.  The subtree of an element its
        trie node does not read arrives as :class:`SkippedSubtree` events
        instead of its own events.
    """

    def __init__(
        self,
        source: Union[str, io.TextIOBase, None],
        keep_whitespace: bool = False,
        chunk_size: int = 1 << 16,
        skip: Optional[SkipTrie] = None,
    ):
        if source is None:
            self._reader = None
            self._buffer = ""
            self._eof = False
            self._push = True
        elif isinstance(source, str):
            self._reader = None
            self._buffer = source
            self._eof = True
            self._push = False
        else:
            self._reader = source
            self._buffer = ""
            self._eof = False
            self._push = False
        self._pos = 0
        self._consumed = 0
        self._chunk_size = chunk_size
        self._keep_whitespace = keep_whitespace
        self._closed = False
        # Scan-resume memo for push mode: when a _find() stalls on
        # _Incomplete, remember (needle, absolute construct start) and the
        # absolute position already scanned, so the retry after the next
        # feed() does not rescan the whole buffered construct (which would
        # make a text node spanning K chunks cost O(K^2)).
        self._resume_key: Optional[Tuple[str, int]] = None
        self._resume_from = 0
        # Push mode: a syntax error hit while earlier events of the same
        # feed() are already complete is held back until the next call, so
        # callers always receive the same event prefix a one-shot parse
        # yields before raising.
        self._deferred_error: Optional[XMLSyntaxError] = None
        # Document-level state of the resumable main loop.
        self._started = False
        self._finished = False
        self._open: List[str] = []  # names of the open elements, root first
        # The skip-trie node of the document and of each open element
        # above the first one whose whole subtree is read (node ``None``);
        # ``_reading`` counts the open elements from that one down (the
        # document counts when the whole document is read).
        self._nodes: List[SkipTrie] = [] if skip is None else [skip]
        self._reading = 1 if skip is None else 0
        # Inside a skipped subtree: the depth of its parent (else -1), the
        # element's name until its first piece is out, and the absolute
        # offset the next piece starts at.
        self._skip_base = -1
        self._skip_name = ""
        self._skip_at = 0
        self._saw_root = False
        self._text_parts: List[str] = []
        self.doctype_internal_subset: Optional[str] = None
        self.doctype_name: Optional[str] = None

    @classmethod
    def incremental(
        cls, keep_whitespace: bool = False, skip: Optional[SkipTrie] = None
    ) -> "StreamingXMLParser":
        """A push-mode parser: call :meth:`feed` / :meth:`close` on it."""
        return cls(None, keep_whitespace=keep_whitespace, skip=skip)

    # ------------------------------------------------------------------ I/O

    def _fill(self, need: int = 1) -> None:
        """Ensure at least ``need`` unread characters are buffered (or EOF).

        Filling never shifts existing buffer indices; the consumed prefix is
        dropped separately by :meth:`_compact` at safe points of the main
        loop, so in-flight index arithmetic stays valid.  In push mode,
        raises :class:`_Incomplete` when the data is not there yet.
        """
        while not self._eof and len(self._buffer) - self._pos < need:
            if self._reader is None:
                if self._closed:
                    self._eof = True
                    break
                raise _Incomplete()
            chunk = self._reader.read(self._chunk_size)
            if not chunk:
                self._eof = True
                break
            self._append(chunk)

    def _append(self, data: str) -> None:
        """Append ``data`` to the buffer in amortized O(len(data)).

        ``self._buffer += data`` on the attribute always copies the whole
        buffer (the attribute slot keeps a second reference), turning a
        construct spanning K chunks into O(K^2) total copying.  Detaching
        the string into a sole-reference local first lets CPython extend it
        in place.
        """
        buffer = self._buffer
        self._buffer = ""
        buffer += data
        self._buffer = buffer

    def _compact(self) -> None:
        """Drop the already-consumed buffer prefix to keep memory bounded.

        Only once the prefix outgrows a chunk: compacting on every construct
        would copy the buffer tail per element (a ~chunk_size/construct_size
        constant-factor tax on the whole parse).  String sources never
        compact — the document is resident anyway, and slicing it per
        construct would cost O(n^2).
        """
        if self._reader is None and not self._push:
            return
        if self._pos >= self._chunk_size:
            self._force_compact()

    def _force_compact(self) -> None:
        if self._pos > 0:
            self._consumed += self._pos
            self._buffer = self._buffer[self._pos :]
            self._pos = 0

    def _find(self, needle: str, start: int) -> int:
        """Find ``needle`` at/after buffer index ``start``, filling as needed.

        In push mode the search position survives an :class:`_Incomplete`
        stall (in absolute offsets, so buffer compaction cannot skew it):
        re-entering the same scan resumes where the last one stopped.
        """
        key = (needle, self._offset(start))
        if self._resume_key == key:
            start = max(start, self._resume_from - self._consumed)
        while True:
            idx = self._buffer.find(needle, start)
            if idx >= 0:
                # Clear only this scan's memo: the _find("<") that re-enters
                # a stalled construct on every retry must not discard the
                # inner end-scan's progress (that would make a CDATA or
                # comment spanning K chunks cost O(K^2) again).
                if self._resume_key == key:
                    self._resume_key = None
                return idx
            if self._eof:
                if self._resume_key == key:
                    self._resume_key = None
                return -1
            search_from = max(start, len(self._buffer) - len(needle) + 1)
            try:
                self._fill(len(self._buffer) - self._pos + self._chunk_size)
            except _Incomplete:
                self._resume_key = key
                self._resume_from = self._offset(search_from)
                raise
            start = search_from

    def _offset(self, buffer_index: int) -> int:
        """Absolute character offset of a buffer index, for error messages."""
        return self._consumed + buffer_index

    # ------------------------------------------------------------ main loop

    def events(self) -> Iterator[Event]:
        """Yield the event stream for the whole document (pull mode only)."""
        if self._push:
            raise ValueError(
                "events() needs a source; an incremental parser is driven "
                "with feed()/close()"
            )
        while not self._finished:
            yield from self._advance()

    __iter__ = events

    # ----------------------------------------------------------- push mode

    def feed(self, data: str) -> List[Event]:
        """Push ``data`` into the parser, returning the completed events.

        Only available on :meth:`incremental` parsers.  Events are exactly
        those a one-shot parse would have produced by this point; input that
        ends inside an unfinished construct is retained until more data (or
        :meth:`close`) arrives.
        """
        if not self._push:
            raise ValueError("feed() is only available on incremental parsers")
        if self._closed:
            raise ValueError("feed() called after close()")
        self._append(data)
        return self._pump()

    def close(self) -> List[Event]:
        """Signal end of input, returning the remaining events.

        Raises :class:`~repro.errors.XMLSyntaxError` if the document is
        incomplete (unclosed elements, no root, an unfinished construct).
        """
        if not self._push:
            raise ValueError("close() is only available on incremental parsers")
        self._closed = True
        return self._pump()

    def _pump(self) -> List[Event]:
        """Run the step machine until it stalls, collecting events."""
        if self._deferred_error is not None:
            raise self._deferred_error
        collected: List[Event] = []
        while not self._finished:
            try:
                collected.extend(self._advance())
            except _Incomplete:
                break
            except XMLSyntaxError as exc:
                if not collected:
                    raise
                self._deferred_error = exc
                break
        return collected

    # ------------------------------------------------------- the step loop

    def _advance(self) -> List[Event]:
        """Parse one step, returning its events (resumable on _Incomplete).

        One step is the document start, a batch of common tokens
        (:meth:`_scan`) or of a skipped subtree's tags (:meth:`_skip_scan`),
        one markup construct (with any text preceding it), or the document
        end.  State mutated before an :class:`_Incomplete` escape is limited
        to already-complete text moved into ``self._text_parts``, so
        re-entering is always safe.
        """
        out: List[Event] = []
        if self._finished:
            return out
        if not self._started:
            self._started = True
            out.append(StartDocument())
            return out
        self._compact()
        skipping = self._skip_base >= 0
        # A step that scanned any tokens ends there: whatever stopped the
        # scan raises or stalls in a step of its own, after these events
        # were delivered.  (Text banked by a stall joins the slow step.)
        if self._open and not self._text_parts:
            if skipping:
                tags: List[tuple] = []
                pos = self._skip_scan(self._pos, tags)
                if tags:
                    self._pos = pos
                    self._skip_piece(tags, out)
                    return out
            else:
                self._scan(out)
                if out:
                    return out
        self._fill(1)
        if self._pos >= len(self._buffer):
            return self._finish_document(out)
        try:
            lt = self._find("<", self._pos)
        except _Incomplete:
            # The scan covered the whole buffer without a "<": everything
            # seen is character data.  Bank it and drop it from the buffer,
            # so a text node spanning K chunks costs O(K) — the buffer (and
            # each feed()'s string concatenation) stays one chunk long.
            if len(self._buffer) > self._pos:
                self._text_parts.append(self._buffer[self._pos :])
                self._pos = len(self._buffer)
                self._force_compact()
            raise
        if lt < 0:
            # Trailing character data after the last tag.
            self._text_parts.append(self._buffer[self._pos :])
            self._pos = len(self._buffer)
            return self._finish_document(out)
        if lt > self._pos:
            self._text_parts.append(self._buffer[self._pos : lt])
            self._pos = lt
        flushed = self._flush_text(self._text_parts, len(self._open))
        if flushed is not None:
            out.append(flushed)
        try:
            event, closed = self._parse_markup()
        except _Incomplete:
            if out:
                return self._skipped_events(out) if skipping else out
            raise
        if event is not None:
            self._markup_event(event, closed, skipping, lt, out)
        return self._skipped_events(out) if skipping else out

    def _markup_event(
        self, event: Event, closed: bool, skipping: bool, lt: int, out: List[Event]
    ) -> None:
        """Deliver the element event of the construct at buffer index ``lt``."""
        if type(event) is StartElement:
            if not self._open and self._saw_root:
                raise XMLSyntaxError("multiple root elements", self._offset(self._pos))
            self._saw_root = True
            name = event.name
            child = None
            if not skipping and not self._reading:
                node = self._nodes[-1]
                child = node.get(name, node.default)
                if child is SKIP:
                    self._pos = self._skip_from(name, "/" if closed else "", lt, self._pos, out)
                    return
            out.append(event)
            if closed:
                out.append(EndElement(name))
            else:
                self._open.append(name)
                if skipping:
                    pass
                elif self._reading or child is None:
                    self._reading += 1
                else:
                    self._nodes.append(child)
        elif type(event) is EndElement:
            if not self._open:
                raise XMLSyntaxError(
                    f"unexpected closing tag </{event.name}>", self._offset(self._pos)
                )
            if self._open[-1] != event.name:
                raise XMLSyntaxError(
                    f"closing tag </{event.name}> does not match <{self._open[-1]}>",
                    self._offset(self._pos),
                )
            self._open.pop()
            if skipping:
                pass
            elif self._reading:
                self._reading -= 1
            else:
                self._nodes.pop()
            out.append(event)
        else:  # pragma: no cover - defensive
            out.append(event)

    def _scan(self, out: List[Event]) -> None:
        """Append the events of the common tokens at the read position.

        Stops *before* the first construct :data:`_TOKEN` does not match at
        the current position — comments, PIs, CDATA, anything cut by the
        buffer end, attribute forms only the lenient character loop takes,
        every malformed tag, a tag that repeats an attribute name — and
        before a closing tag that does not match the open element or a
        reference that does not resolve, leaving each of them to
        :meth:`_parse_markup`; after the root element closes, because
        depth-0 content is the step machine's business; and after the first
        piece of a skipped subtree that does not end in the buffer.
        """
        buffer = self._buffer
        pos = self._pos
        open_names = self._open
        nodes = self._nodes
        reading = self._reading
        push_name, pop_name, push_node, pop_node = (
            open_names.append, open_names.pop, nodes.append, nodes.pop
        )
        keep_whitespace = self._keep_whitespace
        match = _TOKEN.match
        append = out.append
        resolve, find_attributes = resolve_entities, _ATTRIBUTE.findall
        text_event, start_event, end_event = Text, StartElement, EndElement
        skip, skip_from = SKIP, self._skip_from
        limit = _BATCH - 3  # one more token adds at most three events
        # A reference that does not resolve ends the batch.
        try:
            while open_names and len(out) <= limit:
                token = match(buffer, pos)
                if token is None:
                    break
                text, closing, name, attrs, empty = token.groups()
                if closing is not None and closing != open_names[-1]:
                    break
                # Everything that can raise comes before the first append,
                # so a token is delivered whole or not at all.
                if "&" in text:
                    text = resolve(text)
                elif not keep_whitespace and text.isspace():
                    text = ""
                if attrs:
                    attrs = tuple([(n, resolve(d or s)) for n, d, s in find_attributes(attrs)])
                    if len(attrs) > 1 and len(dict(attrs)) != len(attrs):
                        break  # a repeated name: _parse_markup owns the message
                if text:
                    append(text_event(text))
                if closing is not None:
                    pop_name()
                    if reading:
                        reading -= 1
                    else:
                        pop_node()
                    append(end_event(closing))
                else:
                    child = None
                    if not reading:
                        node = nodes[-1]
                        child = node.get(name, node.default)
                        if child is skip:
                            pos = skip_from(name, empty, token.end(1), token.end(), out)
                            if self._skip_base >= 0:  # the piece did not end the subtree
                                break
                            continue
                    append(start_event(name, attrs or ()))
                    if empty:
                        append(end_event(name))
                    else:
                        push_name(name)
                        if reading or child is None:
                            reading += 1
                        else:
                            push_node(child)
                pos = token.end()
        except XMLSyntaxError:
            pass  # _parse_markup meets the same reference and raises it
        self._pos = pos
        self._reading = reading

    # ------------------------------------------------------- skipped subtrees

    def _skip_from(self, name: str, empty: str, lt: int, end: int, out: List[Event]) -> int:
        """Skip the element whose start tag spans buffer indices ``lt:end``.

        Appends its first (often only) :class:`SkippedSubtree` piece to
        ``out`` and returns the buffer index after it.
        """
        opening = (None, None, name, empty)
        if empty:
            out.append(SkippedSubtree(name, (opening,), end - lt))
            return end
        self._open.append(name)
        self._skip_base = len(self._open) - 1
        self._skip_name = name
        self._skip_at = self._offset(lt)
        tags = [opening]
        end = self._skip_scan(end, tags)
        self._skip_piece(tags, out, end)
        return end

    def _skip_scan(self, pos: int, tags: List[tuple]) -> int:
        """Append the tags of the skipped subtree from buffer index ``pos``.

        The region up to the subtree's first end-tag candidate (or the last
        complete tag buffered) is taken with one ``findall`` when it is
        clean: every "<" in it starts a :data:`_SKIP_TAG` tag, it holds no
        "&", and its tags balance.  Otherwise the tags are taken one match
        at a time up to the first one that is not clean — a reference, a
        comment, PI or CDATA section, a tag with two or more attributes or
        cut by the buffer end, a malformed tag, an end tag that does not
        match the open element; the step machine then parses that one
        construct with the character-level code, which alone raises, and
        folds its events into the next piece.  Returns the buffer index
        reached.
        """
        buffer = self._buffer
        find = buffer.find
        open_names = self._open
        base = self._skip_base
        push, pop = open_names.append, open_names.pop
        close_at = find("</" + open_names[base], pos)
        end = find(">", close_at) + 1 if close_at >= 0 else 0
        if end <= 0:
            end = buffer.rfind(">", pos) + 1
        if end > pos and find("&", pos, end) < 0:
            found = _SKIP_TAG.findall(buffer, pos, end)
            if len(found) == buffer.count("<", pos, end):
                saved = open_names[base:]
                for _, close, name, empty in found:
                    if close:
                        if close != open_names[-1]:
                            break
                        pop()
                    elif not empty:
                        push(name)
                else:
                    tags += found
                    return end
                open_names[base:] = saved
        match = _SKIP_TAG.match
        append = tags.append
        while True:
            tag = match(buffer, pos)
            if tag is None:
                break
            groups = tag.groups()
            close = groups[1]
            if close:
                if close != open_names[-1]:
                    break
                pop()
            elif not groups[3]:
                push(groups[2])
            append(groups)
            pos = tag.end()
            if len(open_names) == base:
                break
        return pos

    def _skip_piece(self, tags: List[tuple], out: List[Event], pos: Optional[int] = None) -> None:
        """Deliver ``tags`` as the next piece of the skipped subtree, which
        ends at buffer index ``pos`` (the read position by default)."""
        offset = self._offset(self._pos if pos is None else pos)
        out.append(SkippedSubtree(self._skip_name, tuple(tags), offset - self._skip_at))
        self._skip_name = ""
        self._skip_at = offset
        if len(self._open) == self._skip_base:
            self._skip_base = -1

    def _skipped_events(self, events: List[Event]) -> List[Event]:
        """The events the character-level code parsed inside a skipped
        subtree, as its next piece."""
        tags: List[tuple] = []
        for event in events:
            kind = type(event)
            if kind is StartElement:
                tags.append((None, None, event.name, ""))
            elif kind is EndElement:
                tags.append((None, event.name, None, None))
            elif kind is Text:
                mark = event.text.strip()[:1]
                if mark:
                    tags.append((mark, None, None, None))
        out: List[Event] = []
        self._skip_piece(tags, out)
        return out

    def _finish_document(self, out: List[Event]) -> List[Event]:
        # Trailing text is whitespace after the root, or raises here.
        self._flush_text(self._text_parts, len(self._open))
        if self._open:
            raise XMLSyntaxError("unexpected end of document: unclosed elements")
        if not self._saw_root:
            raise XMLSyntaxError("document has no root element")
        out.append(EndDocument())
        self._finished = True
        return out

    # ------------------------------------------------------------- helpers

    def _flush_text(self, parts: List[str], depth: int) -> Optional[Text]:
        if not parts:
            return None
        raw = "".join(parts)
        parts.clear()
        if depth == 0:
            if raw.strip():
                raise XMLSyntaxError("character data outside the root element")
            return None
        if not self._keep_whitespace and not raw.strip():
            return None
        return Text(resolve_entities(raw))

    def _parse_markup(self) -> Tuple[Optional[Event], bool]:
        """Parse one markup construct starting at ``<``.

        Returns ``(event, self_closed)``; ``event`` is ``None`` for skipped
        constructs (comments, PIs, doctype, XML declaration).
        """
        # Look ahead just far enough to discriminate the construct: "<!" may
        # open a comment (4 chars), CDATA or DOCTYPE (9 chars).  Requesting
        # only what the marker requires keeps push-mode latency minimal and
        # fixes misparsing when a chunk boundary splits "<!DOCTYPE"/"<![CDATA[".
        self._fill(2)
        pos = self._pos
        if self._buffer.startswith("<!", pos):
            self._fill(3)
            marker = self._buffer[pos + 2 : pos + 3]
            if marker == "-":
                self._fill(4)
            elif marker in ("[", "D"):
                self._fill(9)
        buf = self._buffer
        if buf.startswith("<!--", pos):
            end = self._find("-->", pos + 4)
            if end < 0:
                raise XMLSyntaxError("unterminated comment", self._offset(pos))
            self._pos = end + 3
            return None, False
        if buf.startswith("<![CDATA[", pos):
            end = self._find("]]>", pos + 9)
            if end < 0:
                raise XMLSyntaxError("unterminated CDATA section", self._offset(pos))
            text = self._buffer[pos + 9 : end]
            self._pos = end + 3
            return (Text(text) if text else None), False
        if buf.startswith("<?", pos):
            end = self._find("?>", pos + 2)
            if end < 0:
                raise XMLSyntaxError("unterminated processing instruction", self._offset(pos))
            self._pos = end + 2
            return None, False
        if buf.startswith("<!DOCTYPE", pos):
            self._parse_doctype(pos)
            return None, False
        if buf.startswith("</", pos):
            end = self._find(">", pos + 2)
            if end < 0:
                raise XMLSyntaxError("unterminated closing tag", self._offset(pos))
            name = self._buffer[pos + 2 : end].strip()
            if not name:
                raise XMLSyntaxError("empty closing tag", self._offset(pos))
            self._pos = end + 1
            return EndElement(name), False
        return self._parse_start_tag(pos)

    def _parse_doctype(self, pos: int) -> None:
        """Consume a DOCTYPE declaration, capturing its internal subset."""
        # Find the end of the declaration, honouring an optional [...] subset.
        i = pos + len("<!DOCTYPE")
        subset_start = -1
        subset_end = -1
        while True:
            # Request exactly up to index i — asking for more than is
            # buffered would stall a push-mode parse for the rest of the
            # document instead of just to the end of the declaration.
            self._fill(i - self._pos + 1)
            buf = self._buffer
            if i >= len(buf):
                raise XMLSyntaxError("unterminated DOCTYPE", self._offset(pos))
            ch = buf[i]
            if ch == "[" and subset_start < 0:
                subset_start = i + 1
                close = self._find("]", i + 1)
                if close < 0:
                    raise XMLSyntaxError("unterminated DOCTYPE internal subset", self._offset(pos))
                subset_end = close
                i = close + 1
                continue
            if ch == ">":
                break
            i += 1
        header = self._buffer[pos + len("<!DOCTYPE") : (subset_start - 1 if subset_start > 0 else i)]
        name = header.strip().split()[0] if header.strip() else None
        self.doctype_name = name
        if subset_start >= 0:
            self.doctype_internal_subset = self._buffer[subset_start:subset_end]
        self._pos = i + 1

    def _parse_start_tag(self, pos: int) -> Tuple[StartElement, bool]:
        end = self._find(">", pos + 1)
        if end < 0:
            raise XMLSyntaxError("unterminated start tag", self._offset(pos))
        # Attribute values may legally contain ">", but the documents this
        # library targets (and produces) escape it; we accept the restriction.
        raw = self._buffer[pos + 1 : end]
        self._pos = end + 1
        self_closed = raw.endswith("/")
        if self_closed:
            raw = raw[:-1]
        raw = raw.strip()
        if not raw:
            raise XMLSyntaxError("empty start tag", self._offset(pos))
        name, attrs = self._parse_tag_content(raw, pos)
        return StartElement(name, attrs), self_closed

    def _parse_tag_content(
        self, raw: str, pos: int
    ) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        i = 0
        length = len(raw)
        if not _is_name_start(raw[0]):
            raise XMLSyntaxError(f"invalid element name in <{raw}>", self._offset(pos))
        while i < length and _is_name_char(raw[i]):
            i += 1
        name = raw[:i]
        attrs: List[Tuple[str, str]] = []
        while i < length:
            while i < length and raw[i].isspace():
                i += 1
            if i >= length:
                break
            start = i
            while i < length and _is_name_char(raw[i]):
                i += 1
            attr_name = raw[start:i]
            if not attr_name:
                raise XMLSyntaxError(f"malformed attribute in <{raw}>", self._offset(pos))
            while i < length and raw[i].isspace():
                i += 1
            if i >= length or raw[i] != "=":
                raise XMLSyntaxError(
                    f"attribute {attr_name!r} is missing a value", self._offset(pos)
                )
            i += 1
            while i < length and raw[i].isspace():
                i += 1
            if i >= length or raw[i] not in "\"'":
                raise XMLSyntaxError(
                    f"attribute {attr_name!r} value must be quoted", self._offset(pos)
                )
            quote = raw[i]
            i += 1
            value_end = raw.find(quote, i)
            if value_end < 0:
                raise XMLSyntaxError(
                    f"unterminated value for attribute {attr_name!r}", self._offset(pos)
                )
            if any(attr_name == seen for seen, _ in attrs):
                raise XMLSyntaxError(f"duplicate attribute {attr_name!r}", self._offset(pos))
            attrs.append((attr_name, resolve_entities(raw[i:value_end])))
            i = value_end + 1
        return name, tuple(attrs)


def parse_events(
    source: Union[str, io.TextIOBase], keep_whitespace: bool = False
) -> Iterator[Event]:
    """Yield streaming events for ``source`` (string or text file object)."""
    return StreamingXMLParser(source, keep_whitespace=keep_whitespace).events()
