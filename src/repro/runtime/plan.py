"""Physical query plan operators.

The query compiler (:mod:`repro.runtime.compiler`) translates a FluX query
into a tree of the operators defined here.  The operators mirror the FluX
AST but carry everything the streamed evaluator needs precomputed:

* ``ProcessStreamOp`` knows, per child label, which handler consumes it
  (``on_index``), which labels must be buffered (from the BDF), whether the
  whole element must be materialized, and the registered XSAX condition id of
  every ``on-first`` handler;
* handler order is explicit (``index``), because output order is defined by
  the original XQuery sequence order and the evaluator fires ``on-first``
  handlers strictly in that order.

The plan is interpreted by :class:`repro.runtime.evaluator.StreamedEvaluator`
(the paper also offers compilation to Java code; interpretation is the
semantics-bearing path we reproduce).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.xquery.ast import XQueryExpr


class PlanOp:
    """Base class of physical plan operators."""

    __slots__ = ()

    def children(self) -> Tuple["PlanOp", ...]:
        return ()

    def operator_count(self) -> int:
        """Total number of operators in this subtree (for plan statistics)."""
        return 1 + sum(child.operator_count() for child in self.children())


@dataclass(frozen=True)
class SequenceOp(PlanOp):
    """Evaluate the items in order."""

    items: Tuple[PlanOp, ...]

    def children(self) -> Tuple[PlanOp, ...]:
        return self.items


@dataclass(frozen=True)
class TextOp(PlanOp):
    """Emit literal text."""

    text: str


@dataclass(frozen=True)
class ConstructorOp(PlanOp):
    """Emit a start tag, evaluate the content, emit the end tag."""

    name: str
    attributes: Tuple[Tuple[str, str], ...]
    content: PlanOp

    def children(self) -> Tuple[PlanOp, ...]:
        return (self.content,)


@dataclass(frozen=True)
class CopyVarOp(PlanOp):
    """Deep-copy the node bound to ``var`` to the output (streaming when the
    node is the active, unconsumed stream element)."""

    var: str


@dataclass(frozen=True)
class BufferedEvalOp(PlanOp):
    """Evaluate an embedded XQuery expression against buffers/bindings and
    serialize its result."""

    expr: XQueryExpr


@dataclass(frozen=True)
class IfOp(PlanOp):
    """Conditional over already-available data."""

    condition: XQueryExpr
    then_branch: PlanOp
    else_branch: PlanOp

    def children(self) -> Tuple[PlanOp, ...]:
        return (self.then_branch, self.else_branch)


@dataclass(frozen=True)
class OnHandlerOp(PlanOp):
    """A streaming ``on label as $var`` handler."""

    index: int
    label: str
    var: str
    body: PlanOp

    def children(self) -> Tuple[PlanOp, ...]:
        return (self.body,)


@dataclass(frozen=True)
class OnFirstHandlerOp(PlanOp):
    """An ``on-first past(labels)`` handler.

    ``condition_id`` is the XSAX registration; ``None`` means the condition
    can never fire early (no DTD knowledge or a whole-subtree dependency) and
    the handler runs when the element closes.  ``always_satisfied`` marks the
    empty condition (fires as soon as output order permits).
    """

    index: int
    labels: FrozenSet[str]
    condition_id: Optional[int]
    always_satisfied: bool
    body: PlanOp

    def children(self) -> Tuple[PlanOp, ...]:
        return (self.body,)


HandlerOp = Union[OnHandlerOp, OnFirstHandlerOp]


@dataclass(frozen=True)
class ProcessStreamOp(PlanOp):
    """Consume the children of the element bound to ``var``."""

    var: str
    element_type: str
    handlers: Tuple[HandlerOp, ...]
    #: child label -> index of the ``on`` handler that consumes it
    on_index: Dict[str, int]
    #: child labels that must be materialized into scope buffers
    buffer_labels: FrozenSet[str]
    #: whether the whole element (children and text) must be materialized
    buffer_whole: bool

    def children(self) -> Tuple[PlanOp, ...]:
        return self.handlers

    def handler_for(self, label: str) -> Optional[int]:
        """Index of the streaming handler for ``label`` (``None`` if absent)."""
        return self.on_index.get(label)


@dataclass
class PhysicalPlan:
    """A compiled FluX query, ready for streamed evaluation."""

    root: PlanOp
    conditions: "ConditionRegistry"
    bdf: "BufferDescriptionForest"
    dtd: Optional[object] = None

    def __post_init__(self) -> None:
        self._lowered: Optional[Dict[int, "LoweredExpr"]] = None

    def __getstate__(self) -> dict:
        # The lowered expressions are derived data keyed by object identity;
        # a worker lowers the plan again on its first document.
        state = dict(self.__dict__)
        del state["_lowered"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lowered = None

    def lowered(self) -> Dict[int, "LoweredExpr"]:
        """``id(op) -> lowered expression`` of every buffered expression of
        the plan (:mod:`repro.runtime.buffered`), lowered once per plan."""
        if self._lowered is None:
            from repro.runtime.buffered import lower_plan

            self._lowered = lower_plan(self.root)
        return self._lowered

    def operator_count(self) -> int:
        return self.root.operator_count()

    def describe(self) -> str:
        """Short human-readable plan summary."""
        from repro.runtime.bdf import BufferDescriptionForest  # noqa: F401

        lines = [
            f"physical plan: {self.operator_count()} operators, "
            f"{len(self.conditions)} registered on-first conditions",
            "buffer description forest:",
            self.bdf.describe(),
        ]
        return "\n".join(lines)
