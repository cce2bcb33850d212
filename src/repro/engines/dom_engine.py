"""DOM baseline engine: materialize everything, then evaluate.

This engine models the behaviour of the "current main memory query engines"
the paper compares against: the whole input document is parsed into a tree
(so peak buffer memory equals the document size, independent of the query)
and the query is evaluated by the reference tree evaluator.
"""

from __future__ import annotations

import io
from typing import List, Union

from repro.engines.base import Engine, QueryResult
from repro.dtd.validator import StreamingValidator
from repro.runtime.buffers import BufferManager
from repro.runtime.stats import RuntimeStats
from repro.xmlstream.events import StartElement
from repro.xmlstream.parser import parse_events
from repro.xmlstream.serializer import escape_text, serialize_events
from repro.xmlstream.tree import build_tree, tree_to_events
from repro.xquery.ast import DOCUMENT_VARIABLE
from repro.xquery.evaluator import TreeEvaluator, make_document_node, string_value
from repro.xquery.parser import parse_xquery


class DomEngine(Engine):
    """Buffer-everything baseline (a conventional main-memory XQuery engine)."""

    name = "dom"

    def __init__(self, dtd=None, validate: bool = False):
        super().__init__(dtd)
        self.validate = validate

    def execute(self, query: str, document: Union[str, io.TextIOBase]) -> QueryResult:
        expr = parse_xquery(query)
        stats = RuntimeStats()
        buffers = BufferManager(stats)
        stats.start_timer()
        events = parse_events(document)
        if self.validate and self.dtd is not None:
            events = StreamingValidator(self.dtd).validate(events)
        counted = _CountingEvents(events, stats)
        root = build_tree(counted)
        buffers.account_tree(root)
        evaluator = TreeEvaluator({DOCUMENT_VARIABLE: make_document_node(root)})
        items = evaluator.evaluate(expr)
        output = _items_to_xml(items)
        stats.stop_timer()
        stats.output_bytes = len(output)
        return QueryResult(output=output, stats=stats, engine=self.name, query=query)


class _CountingEvents:
    """Event-stream wrapper that feeds the shared statistics counters."""

    def __init__(self, events, stats: RuntimeStats):
        self._events = events
        self._stats = stats

    def __iter__(self):
        for event in self._events:
            self._stats.events_processed += 1
            if type(event) is StartElement:
                self._stats.elements_parsed += 1
            yield event


def _items_to_xml(items: List[object]) -> str:
    """Serialize an evaluation result sequence the same way the streamed
    evaluator does (nodes serialized, atomics escaped and space-separated),
    so results are byte-comparable across engines."""
    parts: List[str] = []
    previous_atomic = False
    for item in items:
        if isinstance(item, bool):
            parts.append("true" if item else "false")
            previous_atomic = True
        elif isinstance(item, (str, int, float)):
            if previous_atomic:
                parts.append(" ")
            parts.append(escape_text(string_value(item)))
            previous_atomic = True
        else:
            parts.append(serialize_events(tree_to_events(item)))
            previous_atomic = False
    return "".join(parts)
