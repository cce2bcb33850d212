"""The physical plan lowered to closures: what the streamed evaluator runs.

:func:`lower_program` turns a :class:`~repro.runtime.plan.PhysicalPlan` into
Python functions once per plan (memoized by
:meth:`~repro.runtime.plan.PhysicalPlan.program`), which every run calls
with its :class:`~repro.runtime.evaluator.StreamedEvaluator`.

* An operator that never pulls input is a plain function: text (escaped in
  advance), a buffered expression, and a constructor (tags rendered in
  advance), conditional or sequence over such operators.  Every other
  operator is a generator function, suspending while its source is starved.
* A ``process-stream`` is one loop over its element's children.  For every
  arriving child it materializes the child into the scope's buffers when the
  buffer description forest requires it — only the paths the forest lists
  below it, when it lists any, draining the rest; fires pending ``on-first``
  handlers, strictly in handler order, that are satisfied and whose output
  precedes the child's (their index is smaller than that of the child's
  ``on`` handler); then dispatches the child through a ``{label: handler}``
  dict to its ``on`` handler — streaming it, or replaying the materialized
  subtree — or skips it.  The loop itself drains an unread child, and copies
  a child whose handler is ``copy $itself`` straight from the stream to the
  output.  A child the parser skipped
  (:meth:`~repro.runtime.plan.PhysicalPlan.skip_trie`) arrives as a
  :class:`~repro.xmlstream.events.SkippedSubtree` and counts as unread.
  When the element closes, the remaining ``on-first`` handlers fire in
  order: every ``past`` condition then holds trivially.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import EvaluationError, XMLSyntaxError
from repro.runtime.buffered import LoweredExpr
from repro.runtime.buffers import ScopeBuffers, StreamScopeNode
from repro.runtime.evaluator import _NEED_INPUT, StarvedInput, StreamedEvaluator, _Scope
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
    buffer_reads,
    needed_view,
)
from repro.runtime.xsax import OnFirstEvent, XSAXReader
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    SkippedSubtree,
    StartElement,
    Text,
)
from repro.xmlstream.serializer import escape_text, render_element, start_tag
from repro.xmlstream.tree import XMLElement, tree_to_events
from repro.xquery.evaluator import effective_boolean_value, string_value

#: A lowered operator: its function, and whether it pulls (then it is a generator function).
Lowered = Tuple[Callable, bool]


def lower_program(plan: PhysicalPlan) -> Callable:
    """The root operator of ``plan`` as a generator function of the evaluator."""
    return _pulling(_lower(plan.root, plan))


def _lower(op: PlanOp, plan: PhysicalPlan) -> Lowered:
    kind = type(op)
    if kind is TextOp:
        text = escape_text(op.text)
        return (lambda run: run._emit(text)), False
    if kind is SequenceOp:
        return _chain([_lower(item, plan) for item in op.items])
    if kind is ConstructorOp:
        name, start, end = op.name, start_tag(op.name, op.attributes), f"</{op.name}>"
        opened = (lambda run: run._serializer.start(name, start)), False
        closed = (lambda run: run._serializer.end(name, end)), False
        return _chain([opened, _lower(op.content, plan), closed])
    if kind is BufferedEvalOp:
        expression = plan.lowered()[id(op)]
        return (lambda run: _write_items(run._emit, _evaluate(run, expression))), False
    if kind is IfOp:
        condition = plan.lowered()[id(op)]
        branches = _lower(op.then_branch, plan), _lower(op.else_branch, plan)
        pulls = branches[0][1] or branches[1][1]
        then, otherwise = [_pulling(branch) if pulls else branch[0] for branch in branches]

        def branch(run: StreamedEvaluator):
            holds = effective_boolean_value(_evaluate(run, condition))
            return (then if holds else otherwise)(run)

        return branch, pulls
    if kind is CopyVarOp:
        var = op.var
        return (lambda run: _copy(run, var)), True
    if kind is ProcessStreamOp:
        return _lower_process_stream(op, plan), True
    raise EvaluationError(f"cannot execute plan operator {op!r}")


def _chain(parts: List[Lowered]) -> Lowered:
    """``parts`` run in order: a plain function unless one of them pulls."""
    if not any(pulls for _, pulls in parts):
        functions = tuple([function for function, _ in parts])

        def chain(run: StreamedEvaluator) -> None:
            for function in functions:
                function(run)

        return chain, False
    steps = tuple(parts)

    def pulling_chain(run: StreamedEvaluator):
        for function, pulls in steps:
            if pulls:
                yield from function(run)
            else:
                function(run)

    return pulling_chain, True


def _pulling(lowered: Lowered) -> Callable:
    """``lowered`` as a generator function."""
    function, pulls = lowered
    if pulls:
        return function

    def call(run: StreamedEvaluator):
        function(run)
        yield from ()

    return call


def _lower_on(handler: OnHandlerOp, plan: PhysicalPlan) -> Callable:
    """The ``on`` handler as a generator function over one child, returning
    whether the child's events are used up (else the caller drains them).
    A buffered child is replayed through an XSAX reader of its own, so its
    conditions are tracked exactly as on the live stream."""
    body = _pulling(_lower(handler.body, plan))
    var, conditions = handler.var, plan.conditions

    def on_child(run: StreamedEvaluator, event: StartElement, source, subtree):
        if subtree is not None:
            source = XSAXReader(tree_to_events(subtree), run.dtd, conditions, validate=False)
            next(source)  # the subtree's own start tag: the scope reads children only
        scope = _Scope(event.name, event.attributes, source, ScopeBuffers(run._buffers))
        env = run._env
        shadowed = env.get(var)
        env[var] = scope
        try:
            yield from body(run)
        finally:
            if shadowed is None:
                env.pop(var, None)
            else:
                env[var] = shadowed
        scope.buffers.close()
        return subtree is not None or scope.consumed

    return on_child


#: The handler of a ``copy $itself`` child, which the process-stream loop runs itself.
_COPY = object()


def _lower_process_stream(op: ProcessStreamOp, plan: PhysicalPlan) -> Callable:
    var, buffer_whole, buffer_labels = op.var, op.buffer_whole, op.buffer_labels
    projected = needed_view(buffer_reads(op, plan.dtd)).get
    children: Dict[str, Tuple[int, object]] = {}
    for label, index in op.on_index.items():
        handler = op.handlers[index]
        copies_itself = handler.body == CopyVarOp(handler.var)
        children[label] = (index, _COPY if copies_itself else _lower_on(handler, plan))
    unhandled = (len(op.handlers), None)  # an index after every on-first handler's
    firing = []
    for handler in op.handlers:
        if type(handler) is OnFirstHandlerOp:
            # The condition bits the handler waits for: none for the empty
            # condition, one never set when it holds only at the close.
            need = -1 if handler.condition_id is None else 1 << handler.condition_id
            need = 0 if handler.always_satisfied else need
            firing.append((handler.index, need, *_lower(handler.body, plan)))
    on_first, count = tuple(firing), len(firing)

    def process_stream(run: StreamedEvaluator):
        scope = _open_scope(run._env, var)
        source, buffers, emit = scope.source, scope.buffers, run._emit
        pull, whole, handlers, pending = source.__next__, buffer_whole, on_first, count
        # What the loop reads per event, as locals.
        starved, stop, need_input = StarvedInput, StopIteration, _NEED_INPUT
        start_event, end_event, text_event = StartElement, EndElement, Text
        end_document, skipped, render_start = EndDocument, SkippedSubtree, start_tag
        if whole:
            buffers.ensure_full_element(scope.tag, scope.attrs)
        position = 0  # handlers[:position] have fired
        satisfied = 0  # bit i: condition i holds
        while True:
            try:
                event = pull()
            except starved:
                yield need_input
                continue
            except stop:
                break  # a replayed subtree ends exactly at its closing tag
            kind = type(event)
            if kind is start_event:
                label = event.name
                index, handler = children.get(label, unhandled)
                subtree = None
                if whole or label in buffer_labels:
                    subtree = yield from _materialize(event, source, projected(label))
                    if whole:
                        buffers.append_full_child(subtree)
                    else:
                        buffers.add_child(label, subtree)
                # Satisfied handlers whose output precedes this child's.
                while position < pending:
                    first_index, need, body, pulls = handlers[position]
                    if first_index >= index or need & ~satisfied:
                        break
                    position += 1
                    if pulls:
                        yield from body(run)
                    else:
                        body(run)
                copying = handler is _COPY
                if copying and subtree is not None:
                    emit(render_element(subtree))
                    continue
                if handler is not None and not copying:
                    used_up = yield from handler(run, event, source, subtree)
                    if used_up:
                        continue
                elif subtree is not None:
                    continue
                # Drain the child's events here, or copy them to the output.
                if copying:
                    emit(render_start(label, event.attrs))
                depth = 0
                while True:
                    try:
                        event = pull()
                    except starved:
                        yield need_input
                        continue
                    except stop:
                        break
                    kind = type(event)
                    if kind is start_event:
                        depth += 1
                        if copying:
                            emit(render_start(event.name, event.attrs))
                    elif kind is end_event:
                        if not depth:
                            break
                        depth -= 1
                        if copying:
                            emit("</" + event.name + ">")
                    elif kind is text_event:
                        if copying:
                            emit(escape_text(event.text))
                    elif kind is end_document:
                        break
                if copying:
                    _end_copy(emit, label, depth)
            elif kind is OnFirstEvent:
                satisfied |= 1 << event.condition_id
            elif kind is text_event:
                if whole:
                    buffers.append_full_text(event.text)
            elif kind is end_event or kind is end_document:
                break
            elif kind is skipped and event.name:
                # An unread child the parser skipped: every satisfied
                # handler precedes it.
                while position < pending:
                    _, need, body, pulls = handlers[position]
                    if need & ~satisfied:
                        break
                    position += 1
                    if pulls:
                        yield from body(run)
                    else:
                        body(run)
        # The element closed: every ``past`` condition holds trivially.
        for _, _, body, pulls in handlers[position:]:
            if pulls:
                yield from body(run)
            else:
                body(run)
        scope.consumed = True

    return process_stream


# ------------------------------------------------------------------- runtime


def _open_scope(env: Dict[str, _Scope], var: str) -> _Scope:
    scope = env.get(var)
    if scope is None:
        raise EvaluationError(f"process-stream ${var} is not bound to an active stream element")
    if scope.consumed:
        raise EvaluationError(
            f"process-stream ${var}: the element's children were already consumed"
        )
    return scope


def _evaluate(run: StreamedEvaluator, expression: LoweredExpr) -> List[object]:
    """The value of a buffered expression over the bindings it reads."""
    env = run._env
    bindings: Dict[str, object] = {}
    for name in expression.free_variables & env.keys():
        scope = env[name]
        bindings[name] = StreamScopeNode(scope.tag, scope.attrs, scope.buffers)
    return expression.evaluate(bindings, run._stats)


def _write_items(emit: Callable[[str], None], items: List[object]) -> None:
    previous_atomic = False
    for item in items:
        if isinstance(item, bool):
            emit("true" if item else "false")
            previous_atomic = True
        elif isinstance(item, (str, int, float)):
            if previous_atomic:
                emit(" ")
            emit(escape_text(string_value(item)))
            previous_atomic = True
        else:
            emit(render_element(item.to_element() if hasattr(item, "to_element") else item))
            previous_atomic = False


def _copy(run: StreamedEvaluator, var: str):
    """Copy the node bound to ``var`` to the output."""
    scope = run._env.get(var)
    if scope is None:
        raise EvaluationError(f"copy of unbound variable ${var}")
    emit = run._emit
    if scope.consumed or scope.buffers.full_element is not None:
        emit(render_element(StreamScopeNode(scope.tag, scope.attrs, scope.buffers).to_element()))
        return
    # Copy the element to the output directly from the stream.
    emit(start_tag(scope.tag, scope.attrs.items()))
    source, depth = scope.source, 0
    while True:
        try:
            event = next(source)
        except StarvedInput:
            yield _NEED_INPUT
            continue
        except StopIteration:
            break
        kind = type(event)
        if kind is StartElement:
            depth += 1
            emit(start_tag(event.name, event.attrs))
        elif kind is EndElement:
            if not depth:
                break
            depth -= 1
            emit("</" + event.name + ">")
        elif kind is Text:
            emit(escape_text(event.text))
        elif kind is EndDocument:
            break
    _end_copy(emit, scope.tag, depth)
    scope.consumed = True


def _materialize(event: StartElement, source: Iterator[Event], trie: Optional[dict]):
    """Build the subtree rooted at ``event`` by consuming its events: all of
    it when ``trie`` is ``None``, else the elements on the trie's paths with
    their attributes, and the whole of those it keeps whole."""
    root = XMLElement(event.name, event.attrs)
    stack: List[Tuple[XMLElement, Optional[dict]]] = [(root, trie)]
    dropped = 0  # how deep the events are inside a child left out
    while stack:
        try:
            item = next(source)
        except StarvedInput:
            yield _NEED_INPUT
            continue
        except StopIteration:
            break
        kind = type(item)
        if dropped:
            if kind is StartElement:
                dropped += 1
            elif kind is EndElement:
                dropped -= 1
        elif kind is StartElement:
            parent, paths = stack[-1]
            if paths is not None:
                if item.name not in paths:
                    dropped = 1
                    continue
                paths = paths[item.name]
            child = XMLElement(item.name, item.attrs)
            parent.append(child)
            stack.append((child, paths))
        elif kind is EndElement:
            stack.pop()
        elif kind is Text:
            parent, paths = stack[-1]
            if paths is None:
                parent.append_text(item.text)
    return root


def _end_copy(emit: Callable[[str], None], tag: str, depth: int) -> None:
    """Close a copy of ``tag`` whose input ended ``depth`` elements deep."""
    if depth:  # the input stopped inside a descendant: the copy cannot close
        raise XMLSyntaxError(f"serializer received unbalanced end tag </{tag}>")
    emit("</" + tag + ">")
