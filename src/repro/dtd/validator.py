"""Streaming DTD validation.

The validator consumes the event vocabulary of :mod:`repro.xmlstream.events`
and checks conformance against a :class:`~repro.dtd.schema.DTD` using the
content-model automata, maintaining one automaton state per open element —
exactly the bookkeeping the paper's XSAX parser performs.  XSAX itself
(:mod:`repro.runtime.xsax`) walks the same per-element lookup tables
(:meth:`DTD.element_tables <repro.dtd.schema.DTD.element_tables>`) and adds
on-first events.

Elements that appear in content models but carry no declaration of their own
are treated as having ``ANY`` content, matching common lenient-validation
practice; strict mode turns this into an error.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import XMLValidationError
from repro.dtd.schema import DTD, ElementTable
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartElement,
    Text,
)
from repro.xmlstream.tree import XMLElement, tree_to_events


class StreamingValidator:
    """Validates an event stream against a DTD, one event at a time.

    The validator is push-based: call :meth:`feed` for every event.  It can
    also be used as a filter (:meth:`validate`) that re-yields events after
    checking them, which is how the engines integrate validation without a
    second pass.

    Parameters
    ----------
    dtd:
        The schema to validate against.
    strict:
        When true, elements without a declaration and text inside
        element-only content raise errors; when false (default) undeclared
        elements are treated as ``ANY`` and whitespace-only text is ignored.
    """

    def __init__(self, dtd: DTD, strict: bool = False):
        self.dtd = dtd
        self.strict = strict
        self._tables = dtd.element_tables()
        # One ``[element table, automaton state]`` per open element.
        self._stack: List[list] = []
        self._saw_root = False
        self.elements_validated = 0

    # ----------------------------------------------------------- interface

    @property
    def depth(self) -> int:
        """Number of currently open elements."""
        return len(self._stack)

    def current_state(self) -> Optional[Tuple[str, Optional[int]]]:
        """``(element name, automaton state)`` of the innermost open element."""
        if not self._stack:
            return None
        table, state = self._stack[-1]
        return table.name, state

    def feed(self, event: Event) -> None:  # hot-loop
        """Validate a single event, raising :class:`XMLValidationError` on
        violations."""
        kind = type(event)
        stack = self._stack
        if kind is StartElement:
            name = event.name
            if stack:
                parent = stack[-1]
                steps = parent[0].next
                if steps is not None:
                    state = steps[parent[1]].get(name)
                    if state is None:
                        self._reject_child(parent[0], name)
                    parent[1] = state
            else:
                self._open_root(name)
            table = self._tables[name]
            if self.strict and not table.declared:
                # hot-loop-ok: raises
                raise XMLValidationError(f"element <{name}> is not declared in the DTD")
            # hot-loop-ok: the one frame per open element (depth-bounded)
            stack.append([table, table.start])
            self.elements_validated += 1
        elif kind is EndElement:
            if not stack:
                self._reject_end(None, event)
            table, state = stack.pop()
            accepting = table.accepting
            # hot-loop-ok: the start tag's branch, which loads event.name too, is exclusive
            if table.name != event.name or (accepting is not None and state not in accepting):
                self._reject_end(table, event)  # hot-loop-ok: raises, as the call above does
        elif kind is Text:
            # Cold in data documents: text sits in elements that allow it.
            if not stack or not stack[-1][0].allows_text:
                self._check_text(event.text)
        elif kind is EndDocument and stack:
            # hot-loop-ok: raises
            raise XMLValidationError("document ended with unclosed elements")

    def validate(self, events: Iterable[Event]) -> Iterator[Event]:
        """Yield ``events`` unchanged while validating them."""
        for event in events:
            self.feed(event)
            yield event

    # ---------------------------------------------------------- violations

    def _open_root(self, name: str) -> None:
        if self._saw_root:
            raise XMLValidationError("multiple root elements")
        self._saw_root = True
        if name != self.dtd.root:
            raise XMLValidationError(f"root element is <{name}>, expected <{self.dtd.root}>")

    def _content_model(self, table: ElementTable) -> str:
        return f"(content model: {self.dtd.element(table.name).content.to_dtd_syntax()})"

    def _reject_child(self, parent: ElementTable, name: str) -> None:
        raise XMLValidationError(
            f"element <{name}> is not allowed here inside <{parent.name}> "
            + self._content_model(parent)
        )

    def _reject_end(self, table: Optional[ElementTable], event: EndElement) -> None:
        if table is None:
            raise XMLValidationError(f"unexpected closing tag </{event.name}>")
        if table.name != event.name:
            raise XMLValidationError(
                f"closing tag </{event.name}> does not match open element <{table.name}>"
            )
        raise XMLValidationError(
            f"element <{table.name}> closed with incomplete content " + self._content_model(table)
        )

    def _check_text(self, text: str) -> None:
        if not text.strip():
            return
        if not self._stack:
            raise XMLValidationError("character data outside the root element")
        if self.strict:
            raise XMLValidationError(
                f"element <{self._stack[-1][0].name}> has element-only content but contains text"
            )


def validate_events(events: Iterable[Event], dtd: DTD, strict: bool = False) -> int:
    """Validate a full event stream; returns the number of elements seen."""
    validator = StreamingValidator(dtd, strict=strict)
    for event in events:
        validator.feed(event)
    return validator.elements_validated


def validate_tree(root: XMLElement, dtd: DTD, strict: bool = False) -> int:
    """Validate a materialized tree; returns the number of elements seen."""
    return validate_events(tree_to_events(root, document=True), dtd, strict=strict)
