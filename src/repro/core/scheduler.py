"""Schema-based scheduling: rewriting normalized XQuery into FluX.

This is the final step of the paper's optimizer (Section 3.1): "the
pre-optimized XQuery is rewritten into FluX, with process-stream extensions
enabling a streaming execution of the query.  The key idea here is to exploit
order constraints defined by the DTD."

Scheduling algorithm (reconstructed)
-----------------------------------

The scheduler walks the query top-down, always knowing the *active stream
variable* — the innermost variable whose element's children are currently
arriving on the stream (initially the document variable ``$ROOT``).  For a
sequence of output items ``o1 … on`` evaluated in the scope of stream
variable ``$x`` (bound to elements of DTD type ``t``):

* an item that does not touch ``$x``'s content is *immediate*: it is emitted
  in sequence order, attached to an ``on-first past(X)`` handler where ``X``
  is the union of the child labels needed by the items before it (so it is
  emitted only after their output is complete);
* an item ``for $z in $x/l return B`` becomes a **streaming** ``on l as $z``
  handler iff (a) ``B`` reads nothing from the content of any enclosing
  stream variable other than ``$z`` and (b) for every earlier item ``o_j``
  and every label ``m`` it needs, the DTD order constraint ``m < l`` holds
  (all ``m`` children precede all ``l`` children — so emitting ``o_i`` on
  arrival cannot overtake pending earlier output);
* every other item is **buffered**: it is attached to an
  ``on-first past(X_i)`` handler with ``X_i = dep(o_1) ∪ … ∪ dep(o_i)`` and
  evaluated from buffers when the DTD guarantees that none of those labels
  can occur anymore;
* consecutive buffered items with identical firing conditions are merged
  into a single handler.

If only a single item of the sequence touches the stream and that item is a
constructor (or a conditional over already-known values), the scheduler
simply recurses into it — no ``process-stream`` is needed at this level;
this is what produces the nested shape of the paper's example queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence as Seq, Set, Tuple

from repro.dtd.schema import DTD
from repro.core.flux import (
    FBufferedExpr,
    FConstructor,
    FCopyVar,
    FIf,
    FluxExpr,
    FluxQuery,
    FProcessStream,
    FSequence,
    FText,
    OnFirstHandler,
    OnHandler,
    flux_sequence,
)
from repro.xquery.analysis import (
    DOCUMENT_TYPE,
    WHOLE_SUBTREE,
    child_label_dependencies,
    element_type_children,
    variable_element_types,
)
from repro.xquery.ast import (
    ChildStep,
    DOCUMENT_VARIABLE,
    ElementConstructor,
    EmptySequence,
    ForExpr,
    IfExpr,
    Literal,
    PathExpr,
    SequenceExpr,
    VarRef,
    XQueryExpr,
    sequence_items,
)


@dataclass
class SchedulingReport:
    """Statistics about the scheduling decisions (used by benches/tests).

    ``buffer_reasons`` records, per buffered handler in scheduling order,
    *why* the scheduler could not stream that item — the decision trail
    ``repro explain`` prints next to the analyzer's buffer classes.
    """

    streaming_handlers: int = 0
    buffered_handlers: int = 0
    copy_handlers: int = 0
    buffer_reasons: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"streaming handlers: {self.streaming_handlers}, "
            f"buffered handlers: {self.buffered_handlers}, "
            f"streamed copies: {self.copy_handlers}"
        )


class _Scheduler:
    """Holds the DTD, the constraint oracle, and the inferred variable types."""

    def __init__(self, dtd: Optional[DTD], types: Dict[str, str], use_order_constraints: bool):
        self.dtd = dtd
        self.constraints = dtd.constraints() if dtd is not None else None
        self.types = types
        self.use_order_constraints = use_order_constraints
        self.report = SchedulingReport()

    # --------------------------------------------------------- constraints

    def _order_holds(self, element_type: Optional[str], before: str, after: str) -> bool:
        if not self.use_order_constraints:
            return False
        if element_type == DOCUMENT_TYPE:
            # The document node has exactly one child (the root element).
            return True
        if self.constraints is None or element_type is None:
            return False
        if not self.dtd.has_element(element_type):
            return False
        if before == WHOLE_SUBTREE or after == WHOLE_SUBTREE:
            return False
        return self.constraints.order_holds(element_type, before, after)

    def _all_labels(self, element_type: Optional[str]) -> FrozenSet[str]:
        if element_type == DOCUMENT_TYPE and self.dtd is not None:
            return frozenset({self.dtd.root})
        return element_type_children(self.dtd, element_type)

    # ----------------------------------------------------------- translate

    def translate(
        self, expr: XQueryExpr, stream_var: str, stream_type: Optional[str],
        enclosing_vars: Tuple[str, ...],
    ) -> FluxExpr:
        """Translate ``expr`` evaluated in the scope of ``stream_var``."""
        items = list(sequence_items(expr))
        if not items:
            return FSequence(())
        dependent_indexes = [
            index
            for index, item in enumerate(items)
            if child_label_dependencies(item, stream_var)
        ]
        if not dependent_indexes:
            return flux_sequence(self._immediate(item) for item in items)
        if len(dependent_indexes) == 1:
            index = dependent_indexes[0]
            single = items[index]
            translated = self._translate_single_stream_item(
                single, stream_var, stream_type, enclosing_vars
            )
            if translated is not None:
                parts = [
                    translated if i == index else self._immediate(item)
                    for i, item in enumerate(items)
                ]
                return flux_sequence(parts)
        return self._schedule_sequence(items, stream_var, stream_type, enclosing_vars)

    def _translate_single_stream_item(
        self,
        item: XQueryExpr,
        stream_var: str,
        stream_type: Optional[str],
        enclosing_vars: Tuple[str, ...],
    ) -> Optional[FluxExpr]:
        """Handle the "only one item touches the stream" shortcuts.

        Returns ``None`` when the item still requires sequence scheduling
        (loops, copies, buffered expressions).
        """
        if isinstance(item, ElementConstructor):
            return FConstructor(
                item.name,
                item.attributes,
                self.translate(item.content, stream_var, stream_type, enclosing_vars),
            )
        if isinstance(item, VarRef) and item.name == stream_var:
            # Copying the stream element itself: stream its events through.
            self.report.copy_handlers += 1
            return FCopyVar(stream_var)
        if isinstance(item, IfExpr):
            condition_deps = any(
                child_label_dependencies(item.condition, var)
                for var in enclosing_vars + (stream_var,)
            )
            if not condition_deps:
                return FIf(
                    item.condition,
                    self.translate(item.then_branch, stream_var, stream_type, enclosing_vars),
                    self.translate(item.else_branch, stream_var, stream_type, enclosing_vars),
                )
        return None

    # ---------------------------------------------------------- scheduling

    def _schedule_sequence(
        self,
        items: Seq[XQueryExpr],
        stream_var: str,
        stream_type: Optional[str],
        enclosing_vars: Tuple[str, ...],
    ) -> FluxExpr:
        handlers: List = []
        prior_labels: Set[str] = set()
        streaming_labels: Set[str] = set()
        for item in items:
            deps = child_label_dependencies(item, stream_var)
            if not deps:
                # Immediate item: emit once all earlier output is complete.
                condition = self._condition_labels(prior_labels, stream_type)
                self._append_on_first(handlers, condition, self._immediate(item))
                continue
            if self._is_streamable(
                item, stream_var, stream_type, prior_labels, enclosing_vars, streaming_labels
            ):
                label = item.source.steps[0].name  # type: ignore[union-attr]
                body = self.translate(
                    item.body, item.var, self._child_type(label), enclosing_vars + (stream_var,)
                )
                handlers.append(OnHandler(label, item.var, body))
                self.report.streaming_handlers += 1
                prior_labels.add(label)
                streaming_labels.add(label)
                continue
            # Buffered item.
            condition = self._condition_labels(prior_labels | set(deps), stream_type)
            self._append_on_first(handlers, condition, FBufferedExpr(item))
            self.report.buffered_handlers += 1
            self.report.buffer_reasons.append(
                self._buffer_reason(
                    item, stream_var, stream_type, prior_labels, enclosing_vars,
                    streaming_labels,
                )
            )
            prior_labels.update(deps)
        merged = self._merge_handlers(handlers)
        return FProcessStream(stream_var, stream_type or DOCUMENT_TYPE, tuple(merged))

    def _append_on_first(
        self, handlers: List, condition: FrozenSet[str], body: FluxExpr
    ) -> None:
        handlers.append(OnFirstHandler(condition, body))

    @staticmethod
    def _merge_handlers(handlers: List) -> List:
        merged: List = []
        for handler in handlers:
            previous = merged[-1] if merged else None
            if (
                isinstance(handler, OnFirstHandler)
                and isinstance(previous, OnFirstHandler)
                and previous.past_labels == handler.past_labels
            ):
                merged[-1] = OnFirstHandler(
                    previous.past_labels, flux_sequence([previous.body, handler.body])
                )
            else:
                merged.append(handler)
        return merged

    def _condition_labels(
        self, labels: Set[str], stream_type: Optional[str]
    ) -> FrozenSet[str]:
        if WHOLE_SUBTREE in labels:
            expanded = set(labels - {WHOLE_SUBTREE}) | set(self._all_labels(stream_type))
            if not expanded:
                # No schema knowledge: fire only when the element closes,
                # expressed as "wait for every possible label" = the unknown
                # whole-subtree marker, which the runtime maps to end-of-element.
                return frozenset({WHOLE_SUBTREE})
            return frozenset(expanded)
        return frozenset(labels)

    @staticmethod
    def _child_type(label: str) -> str:
        """The element type of a child labelled ``label`` is the label itself."""
        return label

    # --------------------------------------------------------- streamable?

    def _is_streamable(
        self,
        item: XQueryExpr,
        stream_var: str,
        stream_type: Optional[str],
        prior_labels: Set[str],
        enclosing_vars: Tuple[str, ...],
        streaming_labels: Set[str],
    ) -> bool:
        if not isinstance(item, ForExpr) or item.where is not None:
            return False
        source = item.source
        if not isinstance(source, PathExpr) or source.var != stream_var:
            return False
        if len(source.steps) != 1 or not isinstance(source.steps[0], ChildStep):
            return False
        label = source.steps[0].name
        if label == "*":
            return False
        if label in streaming_labels:
            # At most one streaming handler per label: a second loop over the
            # same child label is evaluated from buffers instead.
            return False
        # The body must not read content of any enclosing stream variable
        # (including the current one) — only the freshly bound loop variable.
        for outer in enclosing_vars + (stream_var,):
            if child_label_dependencies(item.body, outer):
                return False
        # Order constraints against everything already scheduled.
        for previous in prior_labels:
            if previous == WHOLE_SUBTREE:
                return False
            if not self._order_holds(stream_type, previous, label):
                return False
        return True

    def _buffer_reason(
        self,
        item: XQueryExpr,
        stream_var: str,
        stream_type: Optional[str],
        prior_labels: Set[str],
        enclosing_vars: Tuple[str, ...],
        streaming_labels: Set[str],
    ) -> str:
        """Why :meth:`_is_streamable` rejected ``item`` (first failing check).

        Mirrors the checks in order, so the recorded reason is the one
        that actually forced buffering.  Only called for items already
        decided buffered — the fall-through return covers drift between
        the two methods without ever mislabeling a streamed item.
        """
        if not isinstance(item, ForExpr):
            return "not a child-axis loop: evaluated from buffers"
        if item.where is not None:
            return "loop carries a where clause: evaluated from buffers"
        source = item.source
        if not isinstance(source, PathExpr) or source.var != stream_var:
            return (
                f"loop source is not a path on the stream variable "
                f"{stream_var}: evaluated from buffers"
            )
        if len(source.steps) != 1 or not isinstance(source.steps[0], ChildStep):
            return "loop path is not a single child step: evaluated from buffers"
        label = source.steps[0].name
        if label == "*":
            return "wildcard child step: evaluated from buffers"
        if label in streaming_labels:
            return (
                f"a streaming handler for <{label}> already exists: "
                "second loop over the same label is evaluated from buffers"
            )
        for outer in enclosing_vars + (stream_var,):
            if child_label_dependencies(item.body, outer):
                return (
                    f"loop body reads content of enclosing stream variable "
                    f"{outer}: evaluated from buffers"
                )
        for previous in prior_labels:
            if previous == WHOLE_SUBTREE:
                return (
                    "earlier output needs the whole subtree: "
                    "document order gives no ordering guarantee"
                )
            if not self._order_holds(stream_type, previous, label):
                return (
                    f"DTD gives no guarantee that <{previous}> precedes "
                    f"<{label}> under {stream_type or 'the document'}: "
                    "out-of-order arrival must buffer"
                )
        return "scheduler chose buffering"

    # ------------------------------------------------------------ immediate

    def _immediate(self, expr: XQueryExpr) -> FluxExpr:
        """Translate an expression that does not touch the active stream."""
        if isinstance(expr, Literal):
            value = expr.value
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            return FText(str(value))
        if isinstance(expr, EmptySequence):
            return FSequence(())
        if isinstance(expr, SequenceExpr):
            return flux_sequence(self._immediate(item) for item in expr.items)
        if isinstance(expr, ElementConstructor):
            return FConstructor(expr.name, expr.attributes, self._immediate(expr.content))
        return FBufferedExpr(expr)


def schedule_query(
    expr: XQueryExpr,
    dtd: Optional[DTD],
    use_order_constraints: bool = True,
) -> Tuple[FluxQuery, SchedulingReport]:
    """Rewrite a normalized (and optionally algebraically optimized) XQuery
    expression into a FluX query.

    ``use_order_constraints=False`` disables the DTD order-constraint
    reasoning, forcing every non-first sub-expression into buffered
    ``on-first`` handlers — the ablation baseline of benchmark T6.
    """
    types = variable_element_types(expr, dtd)
    scheduler = _Scheduler(dtd, types, use_order_constraints)
    body = scheduler.translate(expr, DOCUMENT_VARIABLE, DOCUMENT_TYPE, ())
    return FluxQuery(body, dtd), scheduler.report
