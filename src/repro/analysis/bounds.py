"""Buffer-bound classification of compiled plans.

The scheduler already *decides* what buffers (``on-first`` handlers
wrapping buffered expressions); this module *quantifies* those decisions
against the DTD.  Every buffered handler gets a degree of unboundedness —
how many nested repeating axes feed its buffer — and a class:

``CONST``
    degree 0: a bounded number of items with statically bounded subtrees.
    Peak buffer size is independent of document size.
``FANOUT``
    degree 1: bounded by exactly one repeating axis (``*``/``+``).  The
    buffer grows linearly with the matching elements under one stream
    instance.
``DOC``
    degree ≥ 2, recursion, ``ANY`` content, or no DTD at all: the buffer
    can grow with the whole document.

Buffers live per *instance* of their enclosing stream variable and are
released when the instance closes, so the degree measures per-instance
peak growth — the quantity the soundness property test pins down
(a ``CONST`` query's ``peak_buffer_bytes`` stays flat as documents grow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.dtd.automaton import axis_max_count, subtree_growth_degree
from repro.dtd.model import INFINITY
from repro.runtime.plan import (
    BufferedEvalOp,
    IfOp,
    OnFirstHandlerOp,
    OnHandlerOp,
    PhysicalPlan,
    PlanOp,
    ProcessStreamOp,
)
from repro.xquery.analysis import WHOLE_SUBTREE, child_label_dependencies
from repro.xquery.ast import XQueryExpr

#: Buffer classes, from best to worst.
CONST = "CONST"
FANOUT = "FANOUT"
DOC = "DOC"

_CLASS_ORDER = {CONST: 0, FANOUT: 1, DOC: 2}

#: Point estimate for one repeating (``*``/``+``) axis when a number is
#: needed (a handler's "~N firing(s)/doc" cardinality).  Deliberately
#: modest: the figure orders handlers, it does not predict a document.
REPEAT_ESTIMATE = 8.0


def estimate_count(dtd: Optional[object], element_type: str, label: str) -> float:
    """Point estimate of ``label`` children per ``element_type`` instance.

    The exact automaton maximum when bounded; :data:`REPEAT_ESTIMATE` for
    repeating axes or when no DTD is available.
    """
    if dtd is None:
        return REPEAT_ESTIMATE
    maximum = axis_max_count(dtd, element_type, label)
    if maximum >= INFINITY:
        return REPEAT_ESTIMATE
    return maximum


@dataclass(frozen=True)
class BufferedAxis:
    """One buffered dependency: child ``label`` read under ``element_type``.

    ``label`` may be :data:`~repro.xquery.analysis.WHOLE_SUBTREE` when the
    handler copies the whole stream-variable subtree; ``max_count`` is then
    1 (one subtree per instance) and ``subtree_degree`` carries all growth.
    """

    element_type: str
    label: str
    max_count: float  # per-instance occurrences; INFINITY = repeating axis
    subtree_degree: float  # growth degree of each buffered item's subtree

    @property
    def degree(self) -> float:
        """Nested unbounded axes this dependency contributes."""
        axis = 0.0 if self.max_count < INFINITY else 1.0
        return axis + self.subtree_degree

    def reason(self) -> str:
        """One-line human explanation of this axis's contribution."""
        if self.label == WHOLE_SUBTREE:
            head = "whole {0} subtree per instance".format(self.element_type)
        elif self.max_count >= INFINITY:
            head = "{0}* repeats under {1}".format(self.label, self.element_type)
        else:
            head = "<={0} {1} per {2}".format(
                int(self.max_count), self.label, self.element_type
            )
        if self.subtree_degree >= INFINITY:
            tail = "recursive or unbounded item subtree"
        elif self.subtree_degree > 0:
            tail = "item subtree grows (degree {0})".format(int(self.subtree_degree))
        else:
            tail = "bounded item subtree"
        return "{0}; {1}".format(head, tail)


@dataclass(frozen=True)
class HandlerBufferBound:
    """Classification of one buffered (``on-first``) handler."""

    path: str  # "/"-joined child indices from the plan root (walk order)
    stream_var: str  # innermost enclosing stream variable
    element_type: str  # ... and its element type
    past_labels: Tuple[str, ...]  # the on-first condition, sorted
    axes: Tuple[BufferedAxis, ...]
    degree: float
    buffer_class: str
    cardinality: float  # estimated firings per document
    reasons: Tuple[str, ...]


@dataclass(frozen=True)
class PlanBufferAnalysis:
    """All buffered handlers of one plan, plus the worst class."""

    handlers: Tuple[HandlerBufferBound, ...]
    plan_class: Optional[str]  # None when nothing buffers (fully streaming)
    max_degree: float

    def by_path(self) -> "dict[str, HandlerBufferBound]":
        return {handler.path: handler for handler in self.handlers}


def classify_degree(degree: float) -> str:
    """Map a growth degree to a buffer class."""
    if degree <= 0:
        return CONST
    if degree <= 1:
        return FANOUT
    return DOC


def buffered_expressions(op: PlanOp) -> Iterator[XQueryExpr]:
    """XQuery expressions evaluated from buffers inside ``op``.

    Stops at nested ``process-stream`` boundaries: anything below those
    re-streams and is classified through its own handlers.
    """
    if isinstance(op, ProcessStreamOp):
        return
    if isinstance(op, BufferedEvalOp):
        yield op.expr
    if isinstance(op, IfOp):
        yield op.condition
    for child in op.children():
        for expr in buffered_expressions(child):
            yield expr


def _classify_handler(
    dtd: Optional[object],
    handler: OnFirstHandlerOp,
    scopes: Tuple[Tuple[str, str], ...],
    cardinality: float,
    path: str,
) -> HandlerBufferBound:
    exprs = list(buffered_expressions(handler.body))
    axes: List[BufferedAxis] = []
    for var, element_type in scopes:
        deps: Set[str] = set()
        for expr in exprs:
            deps |= child_label_dependencies(expr, var)
        for label in sorted(deps):
            axes.append(_axis(dtd, element_type, label))
    stream_var, element_type = scopes[-1] if scopes else ("$?", "#document")
    degree = max((axis.degree for axis in axes), default=0.0)
    if axes:
        reasons = tuple(axis.reason() for axis in axes)
        if dtd is None:
            reasons = reasons + ("no DTD: buffered axes assumed unbounded",)
    else:
        reasons = ("buffers no per-instance stream data",)
    return HandlerBufferBound(
        path=path,
        stream_var=stream_var,
        element_type=element_type,
        past_labels=tuple(sorted(handler.labels)),
        axes=tuple(axes),
        degree=degree,
        buffer_class=classify_degree(degree),
        cardinality=cardinality,
        reasons=reasons,
    )


def _axis(dtd: Optional[object], element_type: str, label: str) -> BufferedAxis:
    if dtd is None:
        return BufferedAxis(element_type, label, INFINITY, INFINITY)
    if label == WHOLE_SUBTREE:
        return BufferedAxis(
            element_type, label, 1.0, subtree_growth_degree(dtd, element_type)
        )
    return BufferedAxis(
        element_type,
        label,
        axis_max_count(dtd, element_type, label),
        subtree_growth_degree(dtd, label),
    )


def classify_plan(plan: PhysicalPlan) -> PlanBufferAnalysis:
    """Classify every buffered handler of ``plan`` against its DTD.

    Handler paths follow the plan tree's ``children()`` ordering (the
    same walk :func:`repro.analysis.explain.render_plan` uses), so the
    renderer can annotate operators by path.
    """
    dtd = plan.dtd
    found: List[HandlerBufferBound] = []

    def visit(
        op: PlanOp,
        scopes: Tuple[Tuple[str, str], ...],
        cardinality: float,
        path: str,
    ) -> None:
        if isinstance(op, ProcessStreamOp):
            scopes = scopes + ((op.var, op.element_type),)
        elif isinstance(op, OnHandlerOp) and scopes:
            _, element_type = scopes[-1]
            cardinality = cardinality * estimate_count(dtd, element_type, op.label)
        elif isinstance(op, OnFirstHandlerOp):
            found.append(_classify_handler(dtd, op, scopes, cardinality, path))
        for index, child in enumerate(op.children()):
            visit(child, scopes, cardinality, "{0}/{1}".format(path, index))

    visit(plan.root, (), 1.0, "0")
    max_degree = max((handler.degree for handler in found), default=0.0)
    plan_class: Optional[str] = None
    if found:
        plan_class = max(
            (handler.buffer_class for handler in found),
            key=lambda name: _CLASS_ORDER[name],
        )
    return PlanBufferAnalysis(
        handlers=tuple(found), plan_class=plan_class, max_degree=max_degree
    )
