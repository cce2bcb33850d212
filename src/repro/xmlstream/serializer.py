"""Serialization of trees and event streams back to XML text.

The FluX runtime produces its result as an *output event stream* which is
serialized incrementally (so results never need to be materialized); the
baseline engines serialize result trees.  Both paths share the escaping
helpers below so outputs are byte-for-byte comparable in tests.
"""

from __future__ import annotations

from typing import IO, Iterable, List, Optional

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.tree import XMLElement, XMLNode, XMLText


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def serialize_tree(node: XMLNode, indent: Optional[str] = None) -> str:
    """Serialize a tree to XML text.

    ``indent`` enables pretty-printing (children on their own lines); the
    default compact form is used whenever outputs are compared.
    """
    parts: List[str] = []
    _write_node(node, parts, indent, 0)
    return "".join(parts)


def _write_node(node: XMLNode, parts: List[str], indent: Optional[str], depth: int) -> None:
    pad = (indent * depth) if indent else ""
    newline = "\n" if indent else ""
    if isinstance(node, XMLText):
        parts.append(pad + escape_text(node.text) + newline)
        return
    attrs = "".join(f' {name}="{escape_attribute(value)}"' for name, value in node.attrs.items())
    if not node.children:
        parts.append(f"{pad}<{node.tag}{attrs}/>{newline}")
        return
    only_text = all(isinstance(child, XMLText) for child in node.children)
    if only_text:
        text = "".join(escape_text(child.text) for child in node.children)  # type: ignore[union-attr]
        parts.append(f"{pad}<{node.tag}{attrs}>{text}</{node.tag}>{newline}")
        return
    parts.append(f"{pad}<{node.tag}{attrs}>{newline}")
    for child in node.children:
        _write_node(child, parts, indent, depth + 1)
    parts.append(f"{pad}</{node.tag}>{newline}")


class EventSerializer:
    """Incremental serializer for output event streams.

    Events are written to ``sink`` (any object with a ``write(str)`` method)
    as they arrive; the serializer checks well-formedness (balanced tags) so
    bugs in plan operators surface as errors rather than bad output.
    """

    def __init__(self, sink: IO[str]):
        self._sink = sink
        self._stack: List[str] = []
        self.bytes_written = 0

    def write(self, event: Event) -> None:
        """Serialize a single event."""
        kind = type(event)
        if kind is Text:
            self._emit(escape_text(event.text))
        elif kind is StartElement:
            attrs = "".join(
                f' {name}="{escape_attribute(value)}"' for name, value in event.attrs
            )
            self._emit(f"<{event.name}{attrs}>")
            self._stack.append(event.name)
        elif kind is EndElement:
            if not self._stack or self._stack[-1] != event.name:
                raise XMLSyntaxError(
                    f"serializer received unbalanced end tag </{event.name}>"
                )
            self._stack.pop()
            self._emit(f"</{event.name}>")
        elif kind is not StartDocument and kind is not EndDocument:  # pragma: no cover
            raise XMLSyntaxError(f"cannot serialize event {event!r}")

    def write_all(self, events: Iterable[Event]) -> None:
        """Serialize every event of ``events``."""
        for event in events:
            self.write(event)

    def close(self) -> None:
        """Check that all opened elements were closed."""
        if self._stack:
            raise XMLSyntaxError(
                f"serializer closed with unclosed elements: {self._stack!r}"
            )

    def _emit(self, text: str) -> None:
        self._sink.write(text)
        self.bytes_written += len(text)


def serialize_events(events: Iterable[Event]) -> str:
    """Serialize an event stream to an XML string."""
    import io

    sink = io.StringIO()
    serializer = EventSerializer(sink)
    serializer.write_all(events)
    serializer.close()
    return sink.getvalue()
