"""Projection baseline engine (Marian & Siméon, "Projecting XML Documents").

The paper positions FluXQuery against projection-based main-memory reduction
(reference [10]): instead of buffering the whole document, buffer only the
nodes on paths the query actually uses, then evaluate in memory.  FluXQuery
improves on this by additionally *not* buffering data that can be processed
on the fly; this engine exists to reproduce that comparison.

The engine works in two phases:

1. **Static projection-path extraction**
   (:func:`repro.xquery.analysis.projection_paths`): every
   path in the query is resolved to a document-rooted path; loop sources
   contribute their *spine* (the elements must exist but their content is not
   needed), while paths whose nodes are returned, copied, or compared
   contribute the full subtree of their final step.
2. **Streaming projection**: the document is parsed as a stream and only the
   matching elements (spines plus kept subtrees, with their attributes and
   the text of kept subtrees) are materialized.  The projected tree is then
   handed to the reference tree evaluator.

Peak memory is the size of the projected tree, which for typical queries is a
query-dependent fraction of the document — more than FluX buffers, much less
than the DOM engine.
"""

from __future__ import annotations

import io
from typing import List, Optional, Union

from repro.engines.base import Engine, QueryResult
from repro.runtime.buffers import BufferManager
from repro.runtime.stats import RuntimeStats
from repro.xmlstream.events import EndElement, StartElement, Text
from repro.xmlstream.parser import parse_events
from repro.xmlstream.tree import XMLElement
from repro.xquery.analysis import ProjectionNode, projection_paths
from repro.xquery.ast import DOCUMENT_VARIABLE
from repro.xquery.evaluator import TreeEvaluator, make_document_node
from repro.xquery.parser import parse_xquery
from repro.engines.dom_engine import _CountingEvents, _items_to_xml


class _StackEntry:
    __slots__ = ("element", "matched", "in_kept_subtree")

    def __init__(
        self,
        element: Optional[XMLElement],
        matched: List[ProjectionNode],
        in_kept_subtree: bool,
    ):
        self.element = element
        self.matched = matched
        self.in_kept_subtree = in_kept_subtree


class ProjectionEngine(Engine):
    """Projection-based baseline: buffer only statically projected paths."""

    name = "projection"

    def execute(self, query: str, document: Union[str, io.TextIOBase]) -> QueryResult:
        expr = parse_xquery(query)
        projection = projection_paths(expr)
        stats = RuntimeStats()
        buffers = BufferManager(stats)
        stats.start_timer()
        events = _CountingEvents(parse_events(document), stats)
        projected_root = self._project(events, projection)
        if projected_root is not None:
            buffers.account_tree(projected_root)
            document_node = make_document_node(projected_root)
        else:
            document_node = XMLElement("#document")
        evaluator = TreeEvaluator({DOCUMENT_VARIABLE: document_node})
        items = evaluator.evaluate(expr)
        output = _items_to_xml(items)
        stats.stop_timer()
        stats.output_bytes = len(output)
        return QueryResult(output=output, stats=stats, engine=self.name, query=query)

    # ------------------------------------------------------------ projection

    @staticmethod
    def _project(events, projection: ProjectionNode) -> Optional[XMLElement]:
        """Stream the document, materializing only projected nodes."""
        root_element: Optional[XMLElement] = None
        stack: List[_StackEntry] = []
        for event in events:
            if type(event) is StartElement:
                if not stack:
                    # The root element is always materialized (it is the
                    # spine of every document-rooted path).
                    root_node = projection.children.get(event.name)
                    matched = [root_node] if root_node is not None else []
                    element = XMLElement(event.name, event.attributes)
                    root_element = element
                    in_kept = projection.keep_subtree or (
                        root_node.keep_subtree if root_node is not None else False
                    )
                    stack.append(_StackEntry(element, matched, in_kept))
                    continue
                parent = stack[-1]
                matched = []
                keep_region = parent.in_kept_subtree
                for node in parent.matched:
                    child = node.children.get(event.name)
                    if child is not None:
                        matched.append(child)
                        if child.keep_subtree:
                            keep_region = True
                if matched or keep_region:
                    element = XMLElement(event.name, event.attributes)
                    if parent.element is not None:
                        parent.element.append(element)
                    stack.append(_StackEntry(element, matched, keep_region))
                else:
                    stack.append(_StackEntry(None, [], False))
            elif type(event) is EndElement:
                if stack:
                    stack.pop()
            elif type(event) is Text:
                if stack:
                    top = stack[-1]
                    if top.element is not None and top.in_kept_subtree:
                        top.element.append_text(event.text)
        return root_element
