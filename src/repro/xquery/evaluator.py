"""Tree-at-a-time evaluation of the XQuery fragment.

This is the reference semantics of the library.  It is used in three places:

* the **DOM baseline engine** evaluates whole queries against fully
  materialized documents,
* the **projection baseline engine** evaluates queries against projected
  trees,
* the **FluX runtime**'s buffered executor (:mod:`repro.runtime.buffered`)
  evaluates *buffered* sub-expressions (the bodies of ``on-first`` handlers)
  against the buffer contents with it, node by node, apart from the value
  joins it runs as hash joins — an optimisation this module and the two
  baseline engines deliberately do not share.

The evaluator is deliberately simple and allocation-happy; its purpose is
correctness and comparability, not speed.  Memory accounting is the job of
the engines, which measure the size of the trees they hand to the evaluator.

Items and sequences
-------------------

Evaluation produces Python lists of *items*: element nodes
(:class:`~repro.xmlstream.tree.XMLElement` or any object implementing the
same navigation protocol), or atomic values (``str``, ``int``, ``float``).
Sequence order follows document order within a single path evaluation, as in
XQuery.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence as Seq, Union

from repro.errors import EvaluationError
from repro.xmlstream.tree import XMLElement, XMLText
from repro.xquery.ast import (
    AndExpr,
    AttributeStep,
    ChildStep,
    Comparison,
    DescendantStep,
    DOCUMENT_VARIABLE,
    ElementConstructor,
    EmptySequence,
    ForExpr,
    FunctionCall,
    IfExpr,
    LetExpr,
    Literal,
    NotExpr,
    OrExpr,
    PathExpr,
    SequenceExpr,
    TextStep,
    VarRef,
    XQueryExpr,
)

#: An item produced by evaluation.
Item = Union[XMLElement, str, int, float]


def copy_element(node: Any) -> XMLElement:
    """Deep-copy a node (or node-like adapter) into a fresh :class:`XMLElement`."""
    if hasattr(node, "to_element"):
        node = node.to_element()
    if isinstance(node, XMLText):
        raise EvaluationError("text nodes are copied via their string value")
    copy = XMLElement(node.tag, dict(node.attrs))
    for child in node.children:
        if isinstance(child, XMLText):
            copy.append_text(child.text)
        else:
            copy.append(copy_element(child))
    return copy


def atomize(item: Item) -> Union[str, int, float]:
    """Turn an item into its typed/atomic value (string value for nodes)."""
    if isinstance(item, (int, float)):
        return item
    if isinstance(item, str):
        return item
    return item.string_value()


def string_value(item: Item) -> str:
    """The string value of an item."""
    value = atomize(item)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def effective_boolean_value(items: Seq[Item]) -> bool:
    """XQuery effective boolean value of a sequence."""
    if not items:
        return False
    first = items[0]
    if len(items) == 1:
        if isinstance(first, bool):
            return first
        if isinstance(first, (int, float)):
            return first != 0
        if isinstance(first, str):
            return len(first) > 0
    return True


#: The ``xs:double`` lexical space, after XML whitespace trimming.
_DOUBLE = re.compile(
    r"[ \t\r\n]*(?:[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|-?INF|NaN)[ \t\r\n]*"
)


def _as_number(value: Union[str, int, float]) -> Optional[float]:
    """``value`` as an ``xs:double``; ``None`` when it compares as a string."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and _DOUBLE.fullmatch(value):
        return float(value)
    return None


def compare_atomic(op: str, left: Union[str, int, float], right: Union[str, int, float]) -> bool:
    """Compare two atomic values with general-comparison coercion rules."""
    left_num = _as_number(left)
    right_num = _as_number(right)
    lhs: Any
    rhs: Any
    if left_num is not None and right_num is not None:
        lhs, rhs = left_num, right_num
    else:
        lhs, rhs = str(left), str(right)
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise EvaluationError(f"unsupported comparison operator {op!r}")


class TreeEvaluator:
    """Evaluates XQuery expressions against materialized (or buffered) trees.

    Parameters
    ----------
    bindings:
        Initial variable environment mapping variable names to items or
        sequences of items.  The document variable (``$ROOT``) is typically
        bound to a synthetic ``#document`` element wrapping the root.
    """

    def __init__(self, bindings: Optional[Dict[str, Union[Item, List[Item]]]] = None):
        self._env: Dict[str, List[Item]] = {}
        for name, value in (bindings or {}).items():
            self.bind(name, value)

    def bind(self, name: str, value: Union[Item, List[Item]]) -> None:
        """Bind ``$name`` to an item or item sequence."""
        self._env[name] = list(value) if isinstance(value, list) else [value]

    # ------------------------------------------------------------ evaluate

    def evaluate(self, expr: XQueryExpr) -> List[Item]:
        """Evaluate ``expr`` and return the result sequence."""
        if isinstance(expr, Literal):
            return [expr.value]
        if isinstance(expr, EmptySequence):
            return []
        if isinstance(expr, VarRef):
            return list(self._lookup(expr.name))
        if isinstance(expr, PathExpr):
            return self._evaluate_path(expr)
        if isinstance(expr, SequenceExpr):
            result: List[Item] = []
            for item in expr.items:
                result.extend(self.evaluate(item))
            return result
        if isinstance(expr, ForExpr):
            return self._evaluate_for(expr)
        if isinstance(expr, LetExpr):
            return self._evaluate_let(expr)
        if isinstance(expr, IfExpr):
            condition = effective_boolean_value(self.evaluate(expr.condition))
            return self.evaluate(expr.then_branch if condition else expr.else_branch)
        if isinstance(expr, ElementConstructor):
            return [self._construct(expr)]
        if isinstance(expr, Comparison):
            return [self._evaluate_comparison(expr)]
        if isinstance(expr, AndExpr):
            return [all(effective_boolean_value(self.evaluate(op)) for op in expr.operands)]
        if isinstance(expr, OrExpr):
            return [any(effective_boolean_value(self.evaluate(op)) for op in expr.operands)]
        if isinstance(expr, NotExpr):
            return [not effective_boolean_value(self.evaluate(expr.operand))]
        if isinstance(expr, FunctionCall):
            return self._evaluate_function(expr)
        raise EvaluationError(f"cannot evaluate expression {expr!r}")

    def evaluate_boolean(self, expr: XQueryExpr) -> bool:
        """Evaluate ``expr`` and reduce it to its effective boolean value."""
        return effective_boolean_value(self.evaluate(expr))

    # ------------------------------------------------------------ bindings

    def _lookup(self, name: str) -> List[Item]:
        if name not in self._env:
            raise EvaluationError(f"unbound variable ${name}")
        return self._env[name]

    def _with_binding(self, name: str, value: List[Item]) -> "_ScopedBinding":
        return _ScopedBinding(self._env, name, value)

    # ----------------------------------------------------------------- for

    def _evaluate_for(self, expr: ForExpr) -> List[Item]:
        source_items = self.evaluate(expr.source)
        result: List[Item] = []
        for item in source_items:
            with self._with_binding(expr.var, [item]):
                if expr.where is not None and not self.evaluate_boolean(expr.where):
                    continue
                result.extend(self.evaluate(expr.body))
        return result

    def _evaluate_let(self, expr: LetExpr) -> List[Item]:
        value = self.evaluate(expr.value)
        with self._with_binding(expr.var, value):
            return self.evaluate(expr.body)

    # ---------------------------------------------------------------- path

    def _evaluate_path(self, expr: PathExpr) -> List[Item]:
        items: List[Item] = list(self._lookup(expr.var))
        for step in expr.steps:
            items = self._apply_step(items, step)
        return items

    def _apply_step(self, items: List[Item], step) -> List[Item]:
        result: List[Item] = []
        if isinstance(step, ChildStep):
            for item in items:
                if hasattr(item, "child_elements"):
                    result.extend(item.child_elements(step.name))
            return result
        if isinstance(step, DescendantStep):
            for item in items:
                if hasattr(item, "descendants"):
                    result.extend(item.descendants(step.name))
            return result
        if isinstance(step, AttributeStep):
            for item in items:
                if hasattr(item, "get"):
                    value = item.get(step.name)
                    if value is not None:
                        result.append(value)
            return result
        if isinstance(step, TextStep):
            for item in items:
                if hasattr(item, "children"):
                    for child in item.children:
                        if isinstance(child, XMLText):
                            result.append(child.text)
                elif hasattr(item, "string_value"):
                    result.append(item.string_value())
            return result
        raise EvaluationError(f"unsupported path step {step!r}")

    # ---------------------------------------------------------- construct

    def _construct(self, expr: ElementConstructor) -> XMLElement:
        element = XMLElement(expr.name, dict(expr.attributes))
        items = self.evaluate(expr.content)
        previous_atomic = False
        for item in items:
            if isinstance(item, (str, int, float)) and not isinstance(item, bool):
                text = string_value(item)
                if previous_atomic:
                    element.append_text(" ")
                element.append_text(text)
                previous_atomic = True
            elif isinstance(item, bool):
                element.append_text("true" if item else "false")
                previous_atomic = True
            else:
                element.append(copy_element(item))
                previous_atomic = False
        return element

    # --------------------------------------------------------- comparison

    def _evaluate_comparison(self, expr: Comparison) -> bool:
        left_items = self.evaluate(expr.left)
        right_items = self.evaluate(expr.right)
        for left in left_items:
            for right in right_items:
                if compare_atomic(expr.op, atomize(left), atomize(right)):
                    return True
        return False

    # ----------------------------------------------------------- functions

    def _evaluate_function(self, expr: FunctionCall) -> List[Item]:
        name = expr.name
        if name == "true":
            return [True]
        if name == "false":
            return [False]
        arguments = [self.evaluate(argument) for argument in expr.arguments]
        if name == "exists":
            return [bool(arguments[0])]
        if name == "empty":
            return [not arguments[0]]
        if name in ("string", "data"):
            if not arguments or not arguments[0]:
                return [""] if name == "string" else []
            return [string_value(item) for item in arguments[0]]
        raise EvaluationError(f"unsupported function {name}()")


class _ScopedBinding:
    """Context manager that installs a binding and restores the old value."""

    def __init__(self, env: Dict[str, List[Item]], name: str, value: List[Item]):
        self._env = env
        self._name = name
        self._value = value
        self._had_previous = False
        self._previous: List[Item] = []

    def __enter__(self) -> None:
        if self._name in self._env:
            self._had_previous = True
            self._previous = self._env[self._name]
        self._env[self._name] = self._value

    def __exit__(self, *exc_info) -> None:
        if self._had_previous:
            self._env[self._name] = self._previous
        else:
            del self._env[self._name]


def make_document_node(root: XMLElement) -> XMLElement:
    """Wrap ``root`` in a synthetic ``#document`` element.

    Binding ``$ROOT`` to this wrapper makes absolute paths (``$ROOT/bib/...``)
    resolve with ordinary child steps.
    """
    document = XMLElement("#document")
    document.append(root)
    return document


def evaluate_query_on_tree(expr: XQueryExpr, root: XMLElement) -> List[Item]:
    """Evaluate a whole query against a document tree.

    ``$ROOT`` is bound to the document node wrapping ``root``.
    """
    evaluator = TreeEvaluator({DOCUMENT_VARIABLE: make_document_node(root)})
    return evaluator.evaluate(expr)
