"""XSAX — the validating SAX parser with ``on-first`` events.

"The streamed query evaluator ... uses our validating SAX parser, XSAX,
which is an extension of a standard SAX parser that in addition produces
on-first events in addition to customary SAX-events. ... We first register
the DTD and all on-first event handlers of the input query with the XSAX
parser.  Based on this information, the XSAX parser builds a finite state
automaton and lookup-tables for validating the input and generating on-first
events."  (Section 3.2 of the paper.)

The implementation mirrors that description:

* conditions (an element type plus a set of child labels) are registered in
  a :class:`ConditionRegistry` before parsing starts;
* the registry and the DTD together yield, once per element type, a lookup
  table: the element's :class:`~repro.dtd.schema.ElementTable`, the
  pre-built :class:`OnFirstEvent` of each of its conditions, and per
  automaton state the bitmask of conditions that hold there.  The tables
  are memoized on the registry per schema and never pickled — a worker
  rebuilds them on its first document;
* :class:`XSAXReader` wraps any ordinary event stream and keeps one
  ``[table, state, pending mask]`` frame per open element (which doubles as
  validation).  It inserts an :class:`OnFirstEvent` at the earliest
  position the DTD implies that none of the condition's labels can occur
  among the remaining children:

  - immediately after an element's start tag, when the condition holds
    vacuously (e.g. the labels cannot occur at all);
  - immediately **before** the start tag of the child whose arrival makes
    the condition true (so the consumer can still decide whether to handle
    that child before or after firing, preserving output order);
  - immediately before the element's end tag, for conditions that only
    become certain when the element closes (this is also the fallback when
    no DTD is available).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import XMLValidationError
from repro.dtd.automaton import build_automaton
from repro.dtd.model import ElementDecl, Name
from repro.dtd.schema import DTD, MAX_UNDECLARED_TABLES, ElementTable
from repro.runtime.stats import RuntimeStats
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    SkippedSubtree,
    StartDocument,
    StartElement,
    Text,
)
from repro.xquery.analysis import DOCUMENT_TYPE, WHOLE_SUBTREE

Condition = Tuple[int, FrozenSet[str]]


class OnFirstEvent(Event):
    """Inserted into the stream when a registered ``past`` condition holds.

    ``condition_id`` identifies the registered condition; ``element_type``
    and ``labels`` are carried for debugging and tests.
    """

    __slots__ = ("condition_id", "element_type", "labels")
    condition_id: int
    element_type: str
    labels: FrozenSet[str]

    def __init__(self, condition_id: int, element_type: str, labels: FrozenSet[str]) -> None:
        _set_condition_id(self, condition_id)
        _set_element_type(self, element_type)
        _set_labels(self, labels)


_set_condition_id = OnFirstEvent.condition_id.__set__  # type: ignore[attr-defined]
_set_element_type = OnFirstEvent.element_type.__set__  # type: ignore[attr-defined]
_set_labels = OnFirstEvent.labels.__set__  # type: ignore[attr-defined]


class ConditionRegistry:
    """Registry of ``on-first past(labels)`` conditions per element type."""

    def __init__(self) -> None:
        self._ids: Dict[Tuple[str, FrozenSet[str]], int] = {}
        self._by_type: Dict[str, List[Condition]] = {}
        # Lookup tables by schema fingerprint (``None``: no DTD).
        self._tables: Dict[Optional[str], _TypeTables] = {}

    def __getstate__(self) -> dict:
        return {"_ids": self._ids, "_by_type": self._by_type}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tables = {}

    def register(self, element_type: str, labels: FrozenSet[str]) -> int:
        """Register a condition, returning its (deduplicated) id."""
        key = (element_type, labels)
        if key in self._ids:
            return self._ids[key]
        condition_id = len(self._ids)
        self._ids[key] = condition_id
        self._by_type.setdefault(element_type, []).append((condition_id, labels))
        self._tables.clear()
        return condition_id

    def conditions_for(self, element_type: str) -> List[Condition]:
        """All registered conditions for ``element_type``."""
        return list(self._by_type.get(element_type, []))

    def element_types(self) -> List[str]:
        """Element types that have at least one registered condition.

        The multi-query dispatcher uses this: children of such elements must
        always be forwarded, because every child start tag steps the
        element's content-model automaton and thereby decides *when* the
        condition's on-first event fires.
        """
        return list(self._by_type)

    def __len__(self) -> int:
        return len(self._ids)

    def _tables_for(self, dtd: Optional[DTD]) -> "_TypeTables":
        """The lookup tables of these conditions under ``dtd``, built once per schema."""
        key = dtd.fingerprint() if dtd is not None else None
        tables = self._tables.get(key)
        if tables is None:
            tables = self._tables[key] = _TypeTables(self._by_type, dtd)
        return tables


class _FiredEvents(dict):
    """``{condition bitmask: its on-first events, in registration order}``."""

    def __init__(self, events: Tuple[OnFirstEvent, ...]) -> None:
        super().__init__()
        self._events = events

    def __missing__(self, mask: int) -> Tuple[OnFirstEvent, ...]:
        fired = self[mask] = tuple(
            [event for bit, event in enumerate(self._events) if mask >> bit & 1]
        )
        return fired


class _TypeEntry:
    """Everything XSAX looks up about one element type.

    ``start``/``next``/``accepting`` are the element table's; ``holds[s]``
    is the bitmask (bit = position among the type's conditions) of
    conditions that hold in automaton state ``s``; ``initial`` are the
    events that fire right behind the start tag and ``pending`` the mask
    left open after them.  ``name`` is ``None`` for the document
    pseudo-element, which no end tag can match.
    """

    __slots__ = ("name", "start", "next", "accepting", "holds", "pending", "initial", "fired")

    def __init__(
        self, name: Optional[str], table: ElementTable, conditions: Sequence[Condition]
    ) -> None:
        self.name = name
        self.start, self.next, self.accepting = table.start, table.next, table.accepting
        self.fired = _FiredEvents(
            tuple([OnFirstEvent(cid, table.name, labels) for cid, labels in conditions])
        )

        def holding(remaining: Optional[FrozenSet[str]]) -> int:
            # Where the schema says nothing about the remaining children
            # (``None``), only an empty label set holds.
            return sum(
                1 << bit
                for bit, (_, labels) in enumerate(conditions)
                if not labels
                or (remaining is not None and WHOLE_SUBTREE not in labels and not remaining & labels)
            )

        self.holds = None if table.remaining is None else [holding(r) for r in table.remaining]
        now = holding(None) if self.holds is None else self.holds[table.start]
        self.initial = self.fired[now]
        self.pending = (1 << len(conditions)) - 1 & ~now


class _TypeTables(dict):
    """``{element name: _TypeEntry}`` for one registry under one schema.

    Entries are built on first use.  :attr:`document` is the entry of the
    document pseudo-element, whose content model has the root element as its
    single child, so top-level conditions work the same way as everywhere else.
    """

    def __init__(self, by_type: Dict[str, List[Condition]], dtd: Optional[DTD]) -> None:
        super().__init__()
        self._by_type = by_type
        self._dtd = dtd
        document = ElementTable(DOCUMENT_TYPE)
        if dtd is not None:
            decl = ElementDecl(DOCUMENT_TYPE, Name(dtd.root))
            document = ElementTable(DOCUMENT_TYPE, decl, build_automaton(decl))
        self.document = _TypeEntry(None, document, by_type.get(DOCUMENT_TYPE, ()))

    def __missing__(self, name: str) -> _TypeEntry:
        if self._dtd is not None:
            table = self._dtd.element_tables()[name]
        else:
            table = ElementTable(name)
        entry = _TypeEntry(name, table, self._by_type.get(name, ()))
        if table.declared or len(self) < MAX_UNDECLARED_TABLES:
            self[name] = entry
        return entry


class XSAXReader:
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
        registry = conditions if conditions is not None else ConditionRegistry()
        self._types = registry._tables_for(dtd)
        self._validate = validate
        self._stats = stats
        # One ``[entry, automaton state, pending condition mask]`` per open element.
        self._stack: List[list] = []
        self._queue: Deque[Event] = deque()

    # ------------------------------------------------------------ iterator

    def __iter__(self) -> Iterator[Event]:
        return self

    def __next__(self) -> Event:
        queue = self._queue
        if queue:
            event = queue.popleft()
        else:
            # A starved source raises here, before any state has changed.
            event = next(self._events)
            kind = type(event)
            if kind is StartElement:
                event = self._start(event)
            elif kind is EndElement:
                event = self._end(event)
            elif kind is SkippedSubtree:
                event = self._skipped(event)
            elif kind is not Text:
                event = self._document_edge(event)
        stats = self._stats
        if stats is not None:
            stats.events_processed += 1
            kind = type(event)
            # The class of the delivered event, not of the source's.
            if kind is StartElement:
                stats.elements_parsed += 1
            elif kind is OnFirstEvent:
                stats.onfirst_events += 1
        return event

    # ------------------------------------------------------------- element

    def _start(self, event: StartElement) -> Event:
        name = event.name
        stack = self._stack
        before = None
        if stack:
            parent = stack[-1]
            entry = parent[0]
            steps = entry.next
            if steps is not None:
                state = steps[parent[1]].get(name)
                if state is None:
                    state = self._unlisted_child(parent, name)
                else:
                    parent[1] = state
                pending = parent[2]
                if pending:
                    hits = pending & entry.holds[state]
                    if hits:
                        # The on-first events precede the triggering start tag.
                        parent[2] = pending ^ hits
                        before = entry.fired[hits]
        entry = self._types[name]
        # One frame per open element (depth-bounded).
        stack.append([entry, entry.start, entry.pending])
        if before is not None:
            event = self._after(before, event)
        # Conditions on the new element that hold immediately.
        initial = entry.initial
        if initial:
            self._queue.extend(initial)
        return event

    def _end(self, event: EndElement) -> Event:
        stack = self._stack
        if not stack:
            self._reject_end(None, event)
        entry, state, pending = stack.pop()
        accepting = entry.accepting
        if entry.name != event.name or (
            accepting is not None and state not in accepting and self._validate
        ):
            self._reject_end(entry, event)
        if pending:
            return self._after(entry.fired[pending], event)
        return event

    def _document_edge(self, event: Event) -> Event:
        """Open the document pseudo-element, or close whatever is still open."""
        kind = type(event)
        if kind is StartDocument:
            document = self._types.document
            self._stack.append([document, 0, document.pending])
            # Conditions that hold before the root element arrives (empty
            # label sets or labels other than the root).
            self._queue.extend(document.initial)
        elif kind is EndDocument and self._stack:
            entry, _, pending = self._stack.pop()
            if pending:
                return self._after(entry.fired[pending], event)
        return event

    def _skipped(self, event: SkippedSubtree) -> Event:
        """Step a skipped subtree's tags through the tables.

        The skipped element steps its parent exactly as its start tag
        would, so the on-first events it triggers precede it; the tags
        inside only validate, and no on-first event fires for them — nobody
        reads them.
        """
        stack = self._stack
        types, validate = self._types, self._validate
        push, pop = stack.append, stack.pop
        tags, skipped = event.tags, event.name
        unlisted = self._unlisted_child
        before = None
        if skipped:
            _, _, name, empty = tags[0]
            tags = tags[1:]
            parent = stack[-1]
            entry = parent[0]
            steps = entry.next
            if steps is not None:
                state = steps[parent[1]].get(name)
                if state is None:
                    state = unlisted(parent, name)
                else:
                    parent[1] = state
                pending = parent[2]
                if pending:
                    hits = pending & entry.holds[state]
                    if hits:
                        parent[2] = pending ^ hits
                        before = entry.fired[hits]
            entry = types[name]
            push([entry, entry.start, 0])
            if empty:
                tags = ((None, name, None, None),)
        for _, close, name, empty in tags:
            if close:
                entry, state, _ = pop()
                accepting = entry.accepting
                if entry.name != close or (
                    accepting is not None and state not in accepting and validate
                ):
                    self._reject_end(entry, EndElement(close))
            elif name:
                parent = stack[-1]
                steps = parent[0].next
                if steps is not None:
                    state = steps[parent[1]].get(name)
                    if state is None:
                        unlisted(parent, name)
                    else:
                        parent[1] = state
                entry = types[name]
                state = entry.start
                if empty:
                    accepting = entry.accepting
                    if accepting is not None and state not in accepting and validate:
                        self._reject_end(entry, EndElement(name))
                else:
                    # One frame per open element (depth-bounded).
                    push([entry, state, 0])
        stats = self._stats
        if stats is not None:
            stats.skipped_subtrees += 1 if skipped else 0
            stats.skipped_bytes += event.size
        if before is not None:
            return self._after(before, event)
        return event

    # ------------------------------------------------------------- helpers

    def _after(self, fired: Tuple[OnFirstEvent, ...], event: Event) -> Event:
        """Queue ``event`` behind ``fired``; returns the first event to deliver."""
        self._queue.extend(fired[1:])
        self._queue.append(event)
        return fired[0]

    def _unlisted_child(self, parent: list, name: str) -> int:
        """The parent's state after a child its table has no step for: a DTD
        violation, which a non-validating reader passes over without stepping
        — except that any first element counts as the document's root."""
        entry, state, _ = parent
        if entry.name is not None:
            if self._validate:
                raise XMLValidationError(
                    f"element <{name}> is not allowed here inside <{entry.name}>"
                )
            return state
        root = self._dtd.root  # the document is only stepped under a DTD
        if self._validate and name != root:
            raise XMLValidationError(f"root element is <{name}>, expected <{root}>")
        parent[1] = 1  # the single child has been seen
        return 1

    def _reject_end(self, entry: Optional[_TypeEntry], event: EndElement) -> None:
        if entry is None or entry.name is None:
            raise XMLValidationError(f"unexpected closing tag </{event.name}>")
        if entry.name != event.name:
            raise XMLValidationError(
                f"closing tag </{event.name}> does not match open element <{entry.name}>"
            )
        raise XMLValidationError(f"element <{entry.name}> closed with incomplete content")
