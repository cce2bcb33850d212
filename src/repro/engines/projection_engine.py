"""Projection baseline engine (Marian & Siméon, "Projecting XML Documents").

The paper positions FluXQuery against projection-based main-memory reduction
(reference [10]): instead of buffering the whole document, buffer only the
nodes on paths the query actually uses, then evaluate in memory.  FluXQuery
improves on this by additionally *not* buffering data that can be processed
on the fly; this engine exists to reproduce that comparison.

The engine works in two phases:

1. **Static projection-path extraction** (:func:`projection_paths`): every
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.engines.base import Engine, QueryResult
from repro.runtime.buffers import BufferManager
from repro.runtime.stats import RuntimeStats
from repro.xmlstream.events import EndElement, StartElement, Text
from repro.xmlstream.parser import parse_events
from repro.xmlstream.tree import XMLElement
from repro.xquery.analysis import DOCUMENT_TYPE
from repro.xquery.ast import (
    AttributeStep,
    ChildStep,
    Comparison,
    DescendantStep,
    DOCUMENT_VARIABLE,
    ElementConstructor,
    ForExpr,
    FunctionCall,
    IfExpr,
    LetExpr,
    PathExpr,
    SequenceExpr,
    TextStep,
    VarRef,
    XQueryExpr,
)
from repro.xquery.evaluator import TreeEvaluator, make_document_node
from repro.xquery.parser import parse_xquery
from repro.engines.dom_engine import _CountingEvents, _items_to_xml


class ProjectionNode:
    """A node of the projection tree (one per document-rooted path step)."""

    __slots__ = ("children", "keep_subtree")

    def __init__(self) -> None:
        self.children: Dict[str, "ProjectionNode"] = {}
        self.keep_subtree = False

    def child(self, label: str) -> "ProjectionNode":
        if label not in self.children:
            self.children[label] = ProjectionNode()
        return self.children[label]

    def paths(self, prefix: Tuple[str, ...] = ()) -> List[Tuple[Tuple[str, ...], bool]]:
        """All (path, keep_subtree) pairs of this subtree (for tests/docs)."""
        result: List[Tuple[Tuple[str, ...], bool]] = []
        if prefix:
            result.append((prefix, self.keep_subtree))
        for label, child in sorted(self.children.items()):
            result.extend(child.paths(prefix + (label,)))
        return result


def projection_paths(expr: XQueryExpr) -> ProjectionNode:
    """Extract the projection tree of a query.

    Variables are resolved to document-rooted paths; a variable bound through
    a construct the analysis cannot follow (descendant or wildcard steps,
    non-path let values) conservatively marks its binding node as a full
    subtree.
    """
    root = ProjectionNode()
    env: Dict[str, Optional[ProjectionNode]] = {DOCUMENT_VARIABLE: root}
    _collect_projection(expr, env, root, value_context=True)
    return root


def _resolve_path(
    path: PathExpr, env: Dict[str, Optional[ProjectionNode]]
) -> Tuple[Optional[ProjectionNode], str]:
    """Walk ``path`` through the projection tree.

    Returns ``(final node, kind)`` where ``kind`` says how the final step
    reached it: ``"node"`` (plain child steps), ``"attribute"`` (attributes
    are kept with every projected element, so no subtree is needed),
    ``"text"`` (the element's character data is needed) or ``"subtree"``
    (descendant/wildcard step — everything below is needed).  ``None`` means
    the variable itself is not trackable.
    """
    node = env.get(path.var)
    if node is None:
        return None, "node"
    for step in path.steps:
        if isinstance(step, ChildStep) and step.name != "*":
            node = node.child(step.name)
        elif isinstance(step, AttributeStep):
            return node, "attribute"
        elif isinstance(step, TextStep):
            return node, "text"
        else:
            # Descendant or wildcard step: keep everything below this node.
            node.keep_subtree = True
            return node, "subtree"
    return node, "node"


def _mark_value_path(path: PathExpr, env: Dict[str, Optional[ProjectionNode]]) -> None:
    node, kind = _resolve_path(path, env)
    if node is not None and kind != "attribute":
        node.keep_subtree = True


def _collect_projection(
    expr: XQueryExpr,
    env: Dict[str, Optional[ProjectionNode]],
    root: ProjectionNode,
    value_context: bool,
) -> None:
    if isinstance(expr, PathExpr):
        if value_context:
            _mark_value_path(expr, env)
        else:
            _resolve_path(expr, env)
        return
    if isinstance(expr, VarRef):
        if value_context:
            node = env.get(expr.name)
            if node is not None:
                node.keep_subtree = True
        return
    if isinstance(expr, ForExpr):
        source_node: Optional[ProjectionNode] = None
        if isinstance(expr.source, PathExpr):
            source_node, __ = _resolve_path(expr.source, env)
        else:
            _collect_projection(expr.source, env, root, value_context=True)
        inner_env = dict(env)
        inner_env[expr.var] = source_node
        if expr.where is not None:
            _collect_projection(expr.where, inner_env, root, value_context=True)
        _collect_projection(expr.body, inner_env, root, value_context)
        return
    if isinstance(expr, LetExpr):
        bound: Optional[ProjectionNode] = None
        if isinstance(expr.value, PathExpr):
            bound, __ = _resolve_path(expr.value, env)
        elif isinstance(expr.value, VarRef):
            bound = env.get(expr.value.name)
        else:
            _collect_projection(expr.value, env, root, value_context=True)
        inner_env = dict(env)
        inner_env[expr.var] = bound
        _collect_projection(expr.body, inner_env, root, value_context)
        return
    if isinstance(expr, (Comparison, FunctionCall)):
        for child in expr.children():
            _collect_projection(child, env, root, value_context=True)
        return
    if isinstance(expr, IfExpr):
        _collect_projection(expr.condition, env, root, value_context=True)
        _collect_projection(expr.then_branch, env, root, value_context)
        _collect_projection(expr.else_branch, env, root, value_context)
        return
    if isinstance(expr, (SequenceExpr, ElementConstructor)):
        for child in expr.children():
            _collect_projection(child, env, root, value_context)
        return
    for child in expr.children():
        _collect_projection(child, env, root, value_context=True)


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
