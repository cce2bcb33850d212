"""In-memory XML tree.

The tree model serves three purposes:

* the DOM baseline engine materializes whole documents as trees,
* the projection baseline materializes *projected* subtrees,
* the FluX runtime materializes only the buffered paths of the BDF as
  (small) trees that buffered sub-expressions are evaluated against.

Nodes are intentionally plain: an :class:`XMLElement` has a tag, attributes,
children (elements and text nodes) and a parent pointer; an :class:`XMLText`
holds character data.  ``size_estimate`` mirrors the accounting of the event
model so that buffered bytes are comparable across engines.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.parser import parse_events

#: A child of an element is either a nested element or a text node.
XMLNode = Union["XMLElement", "XMLText"]


class XMLText:
    """A text node."""

    __slots__ = ("text", "parent")

    def __init__(self, text: str, parent: Optional["XMLElement"] = None):
        self.text = text
        self.parent = parent

    def size_estimate(self) -> int:
        """Approximate bytes held by this node (used for buffer accounting)."""
        return len(self.text)

    def string_value(self) -> str:
        return self.text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XMLText({self.text!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XMLText) and other.text == self.text

    def __hash__(self) -> int:
        return hash(("text", self.text))


class XMLElement:
    """An element node with attributes and ordered children."""

    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        children: Optional[List[XMLNode]] = None,
        parent: Optional["XMLElement"] = None,
    ):
        self.tag = tag
        self.attrs: Dict[str, str] = dict(attrs) if attrs else {}
        self.children: List[XMLNode] = []
        self.parent = parent
        if children:
            for child in children:
                self.append(child)

    # ----------------------------------------------------------- structure

    def append(self, node: XMLNode) -> XMLNode:
        """Append ``node`` as the last child and set its parent pointer."""
        node.parent = self
        self.children.append(node)
        return node

    def append_text(self, text: str) -> XMLText:
        """Append character data, merging with a trailing text sibling."""
        if self.children and isinstance(self.children[-1], XMLText):
            last = self.children[-1]
            last.text += text
            return last
        return self.append(XMLText(text))  # type: ignore[return-value]

    def child_elements(self, tag: Optional[str] = None) -> List["XMLElement"]:
        """Child elements, optionally filtered by tag (``"*"`` matches all)."""
        result = []
        for child in self.children:
            if isinstance(child, XMLElement):
                if tag is None or tag == "*" or child.tag == tag:
                    result.append(child)
        return result

    def first_child(self, tag: str) -> Optional["XMLElement"]:
        """First child element with the given tag, or ``None``."""
        for child in self.children:
            if isinstance(child, XMLElement) and child.tag == tag:
                return child
        return None

    def descendants(self, tag: Optional[str] = None) -> Iterator["XMLElement"]:
        """Yield descendant elements in document order (excluding ``self``)."""
        for child in self.children:
            if isinstance(child, XMLElement):
                if tag is None or tag == "*" or child.tag == tag:
                    yield child
                yield from child.descendants(tag)

    def iter(self) -> Iterator["XMLElement"]:
        """Yield ``self`` and all descendant elements in document order."""
        yield self
        yield from self.descendants()

    # ---------------------------------------------------------------- data

    def string_value(self) -> str:
        """Concatenated text of all descendant text nodes (XPath string value)."""
        parts: List[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: List[str]) -> None:
        for child in self.children:
            if isinstance(child, XMLText):
                parts.append(child.text)
            else:
                child._collect_text(parts)

    def get(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        """Attribute lookup."""
        return self.attrs.get(attr, default)

    def size_estimate(self) -> int:
        """Approximate bytes of the whole subtree (node overheads + text)."""
        total = 16 + len(self.tag) + sum(len(k) + len(v) + 4 for k, v in self.attrs.items())
        for child in self.children:
            total += child.size_estimate()
        return total

    def node_count(self) -> int:
        """Number of element nodes in the subtree rooted at ``self``."""
        count = 1
        for child in self.children:
            if isinstance(child, XMLElement):
                count += child.node_count()
        return count

    # --------------------------------------------------------------- misc

    def deep_equal(self, other: "XMLElement") -> bool:
        """Structural equality: same tag, attributes, and children."""
        if not isinstance(other, XMLElement):
            return False
        if self.tag != other.tag or self.attrs != other.attrs:
            return False
        if len(self.children) != len(other.children):
            return False
        for mine, theirs in zip(self.children, other.children):
            if isinstance(mine, XMLText) != isinstance(theirs, XMLText):
                return False
            if isinstance(mine, XMLText):
                if mine.text != theirs.text:
                    return False
            elif not mine.deep_equal(theirs):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XMLElement({self.tag!r}, children={len(self.children)})"


def build_tree(events: Iterable[Event]) -> XMLElement:
    """Construct a tree from an event stream and return the root element."""
    root: Optional[XMLElement] = None
    stack: List[XMLElement] = []
    for event in events:
        kind = type(event)
        if kind is StartElement:
            element = XMLElement(event.name, event.attributes)
            if stack:
                stack[-1].append(element)
            elif root is None:
                root = element
            else:
                raise XMLSyntaxError("multiple root elements in event stream")
            stack.append(element)
        elif kind is EndElement:
            if not stack or stack[-1].tag != event.name:
                raise XMLSyntaxError(f"mismatched end tag </{event.name}> in event stream")
            stack.pop()
        elif kind is Text:
            if not stack:
                raise XMLSyntaxError("text outside the root element in event stream")
            stack[-1].append_text(event.text)
    if root is None:
        raise XMLSyntaxError("event stream contained no root element")
    if stack:
        raise XMLSyntaxError("event stream ended with unclosed elements")
    return root


def parse_tree(source: Union[str, io.TextIOBase], keep_whitespace: bool = False) -> XMLElement:
    """Parse XML text (or a file object) into a tree and return the root."""
    return build_tree(parse_events(source, keep_whitespace=keep_whitespace))


def tree_to_events(node: XMLNode, document: bool = False) -> Iterator[Event]:
    """Convert a tree (back) into the event vocabulary.

    When ``document`` is true the stream is wrapped in
    ``StartDocument``/``EndDocument`` events.
    """
    if document:
        yield StartDocument()
    yield from _node_events(node)
    if document:
        yield EndDocument()


def _node_events(node: XMLNode) -> Iterator[Event]:
    if isinstance(node, XMLText):
        yield Text(node.text)
        return
    yield StartElement(node.tag, tuple(node.attrs.items()))
    for child in node.children:
        yield from _node_events(child)
    yield EndElement(node.tag)
