"""Rendering for ``repro explain``: the plan DAG and its buffer bounds.

Pure string builders over the analyzer's dataclasses — the CLI composes
these with the optimizer's own ``describe()`` stages, and the golden
test in CI pins the output for an example query.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis.bounds import (
    HandlerBufferBound,
    PlanBufferAnalysis,
    classify_plan,
)
from repro.dtd.model import INFINITY
from repro.runtime.bdf import describe_buffers
from repro.runtime.plan import (
    BufferedEvalOp,
    ConstructorOp,
    CopyVarOp,
    IfOp,
    OnFirstHandlerOp,
    OnHandlerOp,
    PhysicalPlan,
    PlanOp,
    ProcessStreamOp,
    SequenceOp,
    TextOp,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.runtime.compiler import CompiledQueryPlan

_EXPR_WIDTH = 60


def _num(value: float) -> str:
    """Compact number formatting; ``inf`` for unbounded quantities."""
    if value >= INFINITY:
        return "inf"
    if value == int(value):
        return str(int(value))
    return "{0:.1f}".format(value)


def _expr_text(text: str) -> str:
    text = " ".join(text.split())
    if len(text) > _EXPR_WIDTH:
        return text[: _EXPR_WIDTH - 3] + "..."
    return text


def _op_label(op: PlanOp, bound: Optional[HandlerBufferBound]) -> str:
    if isinstance(op, ProcessStreamOp):
        extras = ""
        if op.buffer_whole:
            extras = "  (buffers whole subtree)"
        elif op.buffer_labels:
            extras = "  (buffers: {0})".format(describe_buffers(op.buffer_labels, op.buffer_paths))
        return "process-stream {0} : {1}{2}".format(op.var, op.element_type, extras)
    if isinstance(op, OnHandlerOp):
        return "on {0} as {1}  [stream]".format(op.label, op.var)
    if isinstance(op, OnFirstHandlerOp):
        if op.always_satisfied:
            condition = "on-first immediate"
        else:
            condition = "on-first past({0})".format(", ".join(sorted(op.labels)))
        if bound is None:
            return condition
        return "{0}  [{1}, degree {2}, ~{3} firing(s)/doc]".format(
            condition, bound.buffer_class, _num(bound.degree), _num(bound.cardinality)
        )
    if isinstance(op, BufferedEvalOp):
        return "buffered-eval {0}".format(_expr_text(op.expr.to_xquery()))
    if isinstance(op, IfOp):
        return "if {0}".format(_expr_text(op.condition.to_xquery()))
    if isinstance(op, CopyVarOp):
        return "copy {0}".format(op.var)
    if isinstance(op, ConstructorOp):
        attributes = "".join(
            ' {0}="{1}"'.format(name, value) for name, value in op.attributes
        )
        return "element <{0}{1}>".format(op.name, attributes)
    if isinstance(op, TextOp):
        return "text {0!r}".format(op.text)
    if isinstance(op, SequenceOp):
        return "seq"
    return type(op).__name__


def render_plan(plan: PhysicalPlan, analysis: PlanBufferAnalysis) -> str:
    """Indented plan DAG with buffer classes on every buffered handler.

    Walk order and paths match
    :func:`~repro.analysis.bounds.classify_plan` so handler annotations
    line up.
    """
    by_path = analysis.by_path()
    lowered = plan.lowered()
    lines: List[str] = []

    def visit(op: PlanOp, depth: int, path: str) -> None:
        lines.append("  " * depth + _op_label(op, by_path.get(path)))
        if id(op) in lowered:
            # The physical nodes the runtime runs inside this expression.
            for join in lowered[id(op)].joins:
                lines.append("  " * (depth + 1) + join.describe())
        for index, child in enumerate(op.children()):
            visit(child, depth + 1, "{0}/{1}".format(path, index))

    visit(plan.root, 0, "0")
    return "\n".join(lines)


def render_bounds(analysis: PlanBufferAnalysis) -> str:
    """Per-handler buffer-bound detail (one block per buffered handler)."""
    if not analysis.handlers:
        return "fully streaming: no buffered handlers"
    lines: List[str] = []
    for handler in analysis.handlers:
        condition = ", ".join(handler.past_labels) or "immediate"
        lines.append(
            "on-first past({0}) under {1}:{2} -- {3} (degree {4}, ~{5} firing(s)/doc)".format(
                condition,
                handler.stream_var,
                handler.element_type,
                handler.buffer_class,
                _num(handler.degree),
                _num(handler.cardinality),
            )
        )
        for reason in handler.reasons:
            lines.append("    - {0}".format(reason))
    lines.append("plan class: {0}".format(analysis.plan_class))
    return "\n".join(lines)


def explain_compiled(entry: "CompiledQueryPlan") -> str:
    """Full analyzer report for one compiled query."""
    analysis = classify_plan(entry.plan)
    sections = [
        "== Plan DAG ==",
        render_plan(entry.plan, analysis),
        "== Buffer bounds ==",
        render_bounds(analysis),
    ]
    return "\n".join(sections)
