"""Frozen oracles: the list-based XSAX reader and validator of PR 15.

Copied verbatim (class names aside, and without the caller-less
``_fire_all``) from ``repro.runtime.xsax`` and ``repro.dtd.validator`` as
they stood before the table-driven rewrite.  They re-derive everything per
event from the general representation — ``conditions_for``, ``has_element``,
``automaton``, ``step``, ``can_still_occur`` — which is what makes them a
reference for the precomputed tables.  Do not optimize or "fix" this file:
``tests/test_xsax_differential.py`` holds the live classes to it event for
event, counter for counter and error for error.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.dtd.schema import DTD
from repro.errors import XMLValidationError
from repro.runtime.stats import RuntimeStats
from repro.runtime.xsax import ConditionRegistry, OnFirstEvent
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xquery.analysis import DOCUMENT_TYPE, WHOLE_SUBTREE


class _XSAXOpen:
    """XSAX bookkeeping for one open element."""

    __slots__ = ("name", "state", "pending")

    def __init__(self, name: str, state: Optional[int], pending: List[Tuple[int, FrozenSet[str]]]):
        self.name = name
        self.state = state
        # Conditions registered for this element type that have not fired yet.
        self.pending = pending


class ReferenceXSAXReader:
    """Iterator over an event stream augmented with ``on-first`` events.

    Parameters
    ----------
    events:
        The underlying event stream (typically
        :func:`repro.xmlstream.parser.parse_events`).
    dtd:
        The schema; ``None`` disables early firing (conditions then fire just
        before the closing tag) and validation.
    conditions:
        The registered ``on-first`` conditions.
    validate:
        When true (default) the reader raises
        :class:`~repro.errors.XMLValidationError` on documents that violate
        the DTD, exactly like the streaming validator.
    stats:
        Optional statistics sink (event counters).
    """

    def __init__(
        self,
        events: Iterable[Event],
        dtd: Optional[DTD],
        conditions: Optional[ConditionRegistry] = None,
        validate: bool = True,
        stats: Optional[RuntimeStats] = None,
    ):
        self._events = iter(events)
        self._dtd = dtd
        self._conditions = conditions if conditions is not None else ConditionRegistry()
        self._validate = validate
        self._stats = stats
        self._stack: List[_XSAXOpen] = []
        self._queue: List[Event] = []
        self._started = False

    # ------------------------------------------------------------ iterator

    def __iter__(self) -> Iterator[Event]:
        return self

    def __next__(self) -> Event:
        if self._queue:
            event = self._queue.pop(0)
        else:
            event = self._advance()
        if self._stats is not None:
            self._stats.events_processed += 1
            if isinstance(event, OnFirstEvent):
                self._stats.onfirst_events += 1
            elif isinstance(event, StartElement):
                self._stats.elements_parsed += 1
        return event

    def _advance(self) -> Event:
        event = next(self._events)
        if isinstance(event, StartDocument):
            self._open_document()
            return event
        if isinstance(event, EndDocument):
            return self._close_document(event)
        if isinstance(event, StartElement):
            return self._handle_start(event)
        if isinstance(event, EndElement):
            return self._handle_end(event)
        return event

    # ------------------------------------------------------------ document

    def _open_document(self) -> None:
        pending = self._conditions.conditions_for(DOCUMENT_TYPE)
        self._stack.append(_XSAXOpen(DOCUMENT_TYPE, 0, list(pending)))
        # Conditions that hold before the root element arrives (empty label
        # sets or labels other than the root).
        self._fire_satisfied(self._stack[-1], after=True)

    def _close_document(self, event: EndDocument) -> Event:
        if not self._stack:
            return event
        document = self._stack.pop()
        remaining = [
            OnFirstEvent(condition_id, document.name, labels)
            for condition_id, labels in document.pending
        ]
        document.pending = []
        if remaining:
            self._queue = remaining[1:] + [event] + self._queue
            return remaining[0]
        return event

    # ------------------------------------------------------------- element

    def _handle_start(self, event: StartElement) -> Event:
        fired_before: List[Event] = []
        if self._stack:
            parent = self._stack[-1]
            self._step_parent(parent, event.name)
            fired_before = self._collect_satisfied(parent)
        child_pending = self._conditions.conditions_for(event.name)
        element = _XSAXOpen(event.name, self._initial_state(event.name), list(child_pending))
        self._stack.append(element)
        # Conditions on the new element that hold immediately.
        fired_after = self._collect_satisfied(element)
        if fired_before:
            # The on-first events precede the triggering start tag.
            self._queue = fired_before[1:] + [event] + fired_after + self._queue
            return fired_before[0]
        if fired_after:
            self._queue = fired_after + self._queue
        return event

    def _handle_end(self, event: EndElement) -> Event:
        if not self._stack:
            raise XMLValidationError(f"unexpected closing tag </{event.name}>")
        element = self._stack.pop()
        if element.name == DOCUMENT_TYPE:
            raise XMLValidationError(f"unexpected closing tag </{event.name}>")
        if element.name != event.name:
            raise XMLValidationError(
                f"closing tag </{event.name}> does not match open element <{element.name}>"
            )
        if self._validate and self._dtd is not None and element.state is not None:
            automaton = self._dtd.automaton(element.name)
            if not automaton.is_accepting(element.state):
                raise XMLValidationError(
                    f"element <{element.name}> closed with incomplete content"
                )
        remaining = [
            OnFirstEvent(condition_id, element.name, labels)
            for condition_id, labels in element.pending
        ]
        element.pending = []
        if remaining:
            self._queue = remaining[1:] + [event] + self._queue
            return remaining[0]
        return event

    # ------------------------------------------------------------- helpers

    def _initial_state(self, name: str) -> Optional[int]:
        if self._dtd is not None and self._dtd.has_element(name):
            return self._dtd.automaton(name).start_state
        return None

    def _step_parent(self, parent: _XSAXOpen, child_name: str) -> None:
        if parent.name == DOCUMENT_TYPE:
            if self._validate and self._dtd is not None and child_name != self._dtd.root:
                raise XMLValidationError(
                    f"root element is <{child_name}>, expected <{self._dtd.root}>"
                )
            parent.state = 1  # the single child has been seen
            return
        if self._dtd is None or parent.state is None:
            return
        if not self._dtd.has_element(parent.name):
            return
        automaton = self._dtd.automaton(parent.name)
        next_state = automaton.step(parent.state, child_name)
        if next_state is None:
            if self._validate:
                raise XMLValidationError(
                    f"element <{child_name}> is not allowed here inside <{parent.name}>"
                )
            return
        parent.state = next_state

    def _condition_holds(self, element: _XSAXOpen, labels: FrozenSet[str]) -> bool:
        """Whether no label of ``labels`` can occur among the remaining
        children of ``element``."""
        if not labels:
            return True
        if WHOLE_SUBTREE in labels:
            return False
        if element.name == DOCUMENT_TYPE:
            if self._dtd is None:
                return False
            root_needed = self._dtd.root in labels
            if not root_needed:
                return True
            return element.state == 1
        if self._dtd is None or element.state is None or not self._dtd.has_element(element.name):
            return False
        automaton = self._dtd.automaton(element.name)
        return not automaton.can_still_occur(element.state, labels)

    def _collect_satisfied(self, element: _XSAXOpen) -> List[Event]:
        fired: List[Event] = []
        still_pending: List[Tuple[int, FrozenSet[str]]] = []
        for condition_id, labels in element.pending:
            if self._condition_holds(element, labels):
                fired.append(OnFirstEvent(condition_id, element.name, labels))
            else:
                still_pending.append((condition_id, labels))
        element.pending = still_pending
        return fired

    def _fire_satisfied(self, element: _XSAXOpen, after: bool) -> None:
        fired = self._collect_satisfied(element)
        if fired:
            if after:
                self._queue.extend(fired)
            else:
                self._queue = fired + self._queue


class _ValidatorOpen:
    """Validation state for one open element."""

    __slots__ = ("name", "state", "declared", "allows_text")

    def __init__(self, name: str, state: Optional[int], declared: bool, allows_text: bool):
        self.name = name
        self.state = state
        self.declared = declared
        self.allows_text = allows_text


class ReferenceValidator:
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
        self._stack: List[_ValidatorOpen] = []
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
        top = self._stack[-1]
        return top.name, top.state

    def feed(self, event: Event) -> None:
        """Validate a single event, raising :class:`XMLValidationError` on
        violations."""
        if isinstance(event, StartDocument):
            return
        if isinstance(event, EndDocument):
            if self._stack:
                raise XMLValidationError("document ended with unclosed elements")
            return
        if isinstance(event, StartElement):
            self._feed_start(event)
        elif isinstance(event, EndElement):
            self._feed_end(event)
        elif isinstance(event, Text):
            self._feed_text(event)

    def validate(self, events: Iterable[Event]) -> Iterator[Event]:
        """Yield ``events`` unchanged while validating them."""
        for event in events:
            self.feed(event)
            yield event

    # ------------------------------------------------------------ handlers

    def _feed_start(self, event: StartElement) -> None:
        name = event.name
        if not self._stack:
            if self._saw_root:
                raise XMLValidationError("multiple root elements")
            self._saw_root = True
            if name != self.dtd.root:
                raise XMLValidationError(
                    f"root element is <{name}>, expected <{self.dtd.root}>"
                )
        else:
            parent = self._stack[-1]
            if parent.declared and parent.state is not None:
                automaton = self.dtd.automaton(parent.name)
                next_state = automaton.step(parent.state, name)
                if next_state is None:
                    raise XMLValidationError(
                        f"element <{name}> is not allowed here inside <{parent.name}> "
                        f"(content model: "
                        f"{self.dtd.element(parent.name).content.to_dtd_syntax()})"
                    )
                parent.state = next_state
            elif self.strict and parent.declared:
                raise XMLValidationError(
                    f"element <{parent.name}> does not allow child elements"
                )
        declared = self.dtd.has_element(name)
        if not declared and self.strict:
            raise XMLValidationError(f"element <{name}> is not declared in the DTD")
        allows_text = self.dtd.element(name).allows_text() if declared else True
        state = self.dtd.automaton(name).start_state if declared else None
        self._stack.append(_ValidatorOpen(name, state, declared, allows_text))
        self.elements_validated += 1

    def _feed_end(self, event: EndElement) -> None:
        if not self._stack:
            raise XMLValidationError(f"unexpected closing tag </{event.name}>")
        top = self._stack.pop()
        if top.name != event.name:
            raise XMLValidationError(
                f"closing tag </{event.name}> does not match open element <{top.name}>"
            )
        if top.declared and top.state is not None:
            automaton = self.dtd.automaton(top.name)
            if not automaton.is_accepting(top.state):
                raise XMLValidationError(
                    f"element <{top.name}> closed with incomplete content "
                    f"(content model: {self.dtd.element(top.name).content.to_dtd_syntax()})"
                )

    def _feed_text(self, event: Text) -> None:
        if not self._stack:
            if event.text.strip():
                raise XMLValidationError("character data outside the root element")
            return
        top = self._stack[-1]
        if not top.allows_text and event.text.strip():
            if self.strict:
                raise XMLValidationError(
                    f"element <{top.name}> has element-only content but contains text"
                )
