"""The streamed query evaluator.

"Finally, the physical query plan is executed by the streamed query
evaluator.  The latter uses our validating SAX parser, XSAX ... The streamed
query evaluator processes these events and delivers its output in turn as an
XML stream."  (Section 3.2 of the paper.)

Execution model
---------------

The evaluator interprets the physical plan over the XSAX event stream.  Each
``process-stream`` operator owns a *scope*: the element instance whose
children it is currently consuming.  For every arriving child the scope

1. materializes the child into its buffers when the buffer description
   forest requires it (producing no output),
2. fires pending ``on-first`` handlers, strictly in handler order, that are
   already satisfied and whose output must precede the arriving child's
   output (their index is smaller than the index of the child's ``on``
   handler),
3. dispatches the child to its ``on`` handler, either by streaming (the
   handler body consumes the child's events directly, with constant memory)
   or, when the child also had to be buffered, by replaying the materialized
   subtree,
4. skips the child entirely when neither applies.

When the element closes, the remaining ``on-first`` handlers fire in order —
at that point every ``past`` condition holds trivially.

Output is produced as an event stream and serialized incrementally, so query
results are never materialized.  All memory consumed by buffers flows through
the :class:`~repro.runtime.buffers.BufferManager`, whose peak is the number
the memory benchmarks report.

Push-based execution
--------------------

The evaluator's control flow is written as re-entrant generators: every
method that may consume an input event is a coroutine that *suspends* (with
a plain ``yield``) whenever the event source signals :class:`StarvedInput`.
Over an ordinary pull source (an iterator that blocks or ends) the
generators never suspend, so one-shot :meth:`StreamedEvaluator.run` keeps
the paper's pull semantics unchanged.

:class:`EvaluatorSession` inverts that control so callers can *push* events
instead, giving every compiled plan a ``start() / feed(events) / finish()``
life cycle: ``feed`` appends events to an in-process buffer and resumes the
suspended evaluation generator on the *caller's* thread until it starves
again.  There is no worker thread and no hand-off; this is what the
multi-query service's round-robin dispatcher (``repro.service``) drives,
one session per distinct plan structure, over one shared document scan.
"""

from __future__ import annotations

import io
import math
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.dtd.schema import DTD
from repro.errors import EvaluationError
from repro.runtime.buffers import BufferManager, ScopeBuffers, StreamScopeNode
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
from repro.runtime.stats import RuntimeStats
from repro.runtime.xsax import OnFirstEvent, XSAXReader
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.serializer import EventSerializer
from repro.xmlstream.tree import XMLElement, tree_to_events
from repro.xquery.evaluator import TreeEvaluator, string_value


class _Scope:
    """Runtime state of one ``process-stream`` element instance."""

    __slots__ = ("tag", "attrs", "source", "buffers", "consumed", "is_document")

    def __init__(
        self,
        tag: str,
        attrs: Dict[str, str],
        source: Iterator[Event],
        buffers: ScopeBuffers,
        is_document: bool = False,
    ):
        self.tag = tag
        self.attrs = attrs
        self.source = source
        self.buffers = buffers
        self.consumed = False
        self.is_document = is_document


Binding = Union[_Scope, XMLElement, str, int, float]


class StarvedInput(Exception):
    """Raised by a non-blocking event source that has no event *yet*.

    Unlike ``StopIteration`` this does not mean end of input: the source may
    receive more events later.  The evaluator reacts by suspending its
    execution generator; resuming it retries the same pull.  Sources that
    can raise this must do so *before* mutating any state, so the retry is
    exact (both :class:`_InlineSource` and :class:`~repro.runtime.xsax
    .XSAXReader` — which merely propagates it from its underlying source —
    satisfy this).
    """


#: Yielded by the execution generators while their input source is starved.
_NEED_INPUT = object()

#: Returned by :func:`_pull` when the source is exhausted for good.
_END_OF_INPUT = object()


def _pull(source: Iterator[Event]):
    """Coroutine: the next event from ``source``, or ``_END_OF_INPUT``.

    Suspends (yielding ``_NEED_INPUT``) for as long as the source raises
    :class:`StarvedInput`; pull-based sources never do, so callers driving
    a pull source run straight through.
    """
    while True:
        try:
            return next(source)
        except StopIteration:
            return _END_OF_INPUT
        except StarvedInput:
            yield _NEED_INPUT


class StreamedEvaluator:
    """Executes a physical plan over an input event stream."""

    def __init__(
        self,
        plan: PhysicalPlan,
        dtd: Optional[DTD] = None,
        validate: bool = True,
    ):
        self.plan = plan
        self.dtd = dtd if dtd is not None else plan.dtd
        self.validate = validate

    # -------------------------------------------------------------- driver

    def run(
        self,
        events: Iterable[Event],
        output: Optional[io.TextIOBase] = None,
        stats: Optional[RuntimeStats] = None,
    ) -> RuntimeStats:
        """Evaluate the plan over ``events`` writing the result to ``output``.

        Returns the runtime statistics (buffer peak, counters, timing).
        """
        generator = self.execute(events, output, stats)
        try:
            next(generator)
        except StopIteration as stop:
            return stop.value
        # A pull source never raises StarvedInput, so the generator runs to
        # completion in one step; getting here means the caller handed a
        # push-mode source to the pull-mode driver.
        generator.close()
        raise EvaluationError("run() requires a pull source; use execute() for push mode")

    def execute(
        self,
        events: Iterable[Event],
        output: Optional[io.TextIOBase] = None,
        stats: Optional[RuntimeStats] = None,
    ):
        """The evaluation as a re-entrant generator (returns the stats).

        Yields ``_NEED_INPUT`` whenever ``events`` raises
        :class:`StarvedInput`; resume the generator once more input is
        available.  Over a pull source this never yields and a single
        ``next()`` drives the evaluation to completion (``StopIteration
        .value`` carries the stats).
        """
        self._stats = stats if stats is not None else RuntimeStats()
        self._buffers = BufferManager(self._stats)
        sink = output if output is not None else io.StringIO()
        self._serializer = EventSerializer(sink)
        self._env: Dict[str, Binding] = {}
        self._stats.start_timer()
        try:
            reader = XSAXReader(
                events, self.dtd, self.plan.conditions, validate=self.validate, stats=self._stats
            )
            first = yield from _pull(reader)
            if first is not _END_OF_INPUT and not isinstance(first, StartDocument):
                raise EvaluationError("input stream did not start with StartDocument")
            document_scope = _Scope(
                tag="#document",
                attrs={},
                source=reader,
                buffers=ScopeBuffers(self._buffers),
                is_document=True,
            )
            self._env["ROOT"] = document_scope
            yield from self._eval(self.plan.root)
            self._serializer.close()
            document_scope.buffers.close()
        finally:
            self._stats.stop_timer()
            self._stats.output_bytes = self._serializer.bytes_written
        return self._stats

    def run_to_string(
        self, events: Iterable[Event], stats: Optional[RuntimeStats] = None
    ) -> "tuple[str, RuntimeStats]":
        """Evaluate and return ``(output_xml, stats)``."""
        sink = io.StringIO()
        stats = self.run(events, sink, stats)
        return sink.getvalue(), stats

    # ---------------------------------------------------------- evaluation

    def _eval(self, op: PlanOp):
        # A coroutine (as is everything below that can pull input events):
        # ``yield from`` chains propagate input starvation up to execute().
        if isinstance(op, SequenceOp):
            for item in op.items:
                yield from self._eval(item)
            return
        if isinstance(op, TextOp):
            self._serializer.write(Text(op.text))
            return
        if isinstance(op, ConstructorOp):
            self._serializer.write(StartElement(op.name, op.attributes))
            yield from self._eval(op.content)
            self._serializer.write(EndElement(op.name))
            return
        if isinstance(op, CopyVarOp):
            yield from self._eval_copy(op)
            return
        if isinstance(op, BufferedEvalOp):
            self._eval_buffered(op)
            return
        if isinstance(op, IfOp):
            evaluator = TreeEvaluator(self._evaluation_bindings())
            branch = op.then_branch if evaluator.evaluate_boolean(op.condition) else op.else_branch
            yield from self._eval(branch)
            return
        if isinstance(op, ProcessStreamOp):
            yield from self._eval_process_stream(op)
            return
        raise EvaluationError(f"cannot execute plan operator {op!r}")

    # -------------------------------------------------------------- output

    def _write_items(self, items: List[object]) -> None:
        previous_atomic = False
        for item in items:
            if isinstance(item, bool):
                self._serializer.write(Text("true" if item else "false"))
                previous_atomic = True
            elif isinstance(item, (str, int, float)):
                if previous_atomic:
                    self._serializer.write(Text(" "))
                self._serializer.write(Text(string_value(item)))
                previous_atomic = True
            else:
                element = item.to_element() if hasattr(item, "to_element") else item
                for event in tree_to_events(element):
                    self._serializer.write(event)
                previous_atomic = False

    def _eval_buffered(self, op: BufferedEvalOp) -> None:
        evaluator = TreeEvaluator(self._evaluation_bindings())
        self._write_items(evaluator.evaluate(op.expr))

    def _eval_copy(self, op: CopyVarOp):
        binding = self._env.get(op.var)
        if binding is None:
            raise EvaluationError(f"copy of unbound variable ${op.var}")
        if isinstance(binding, _Scope):
            if not binding.consumed and binding.buffers.full_element is None:
                yield from self._stream_copy(binding)
                return
            element = StreamScopeNode(binding.tag, binding.attrs, binding.buffers).to_element()
            for event in tree_to_events(element):
                self._serializer.write(event)
            return
        if isinstance(binding, XMLElement):
            for event in tree_to_events(binding):
                self._serializer.write(event)
            return
        self._serializer.write(Text(string_value(binding)))

    def _stream_copy(self, scope: _Scope):
        """Copy the scope's element to the output directly from the stream."""
        self._serializer.write(StartElement(scope.tag, tuple(scope.attrs.items())))
        depth = 0
        while True:
            event = yield from _pull(scope.source)
            if event is _END_OF_INPUT:
                break
            if isinstance(event, OnFirstEvent):
                continue
            if isinstance(event, StartElement):
                depth += 1
                self._serializer.write(event)
            elif isinstance(event, EndElement):
                if depth == 0:
                    break
                depth -= 1
                self._serializer.write(event)
            elif isinstance(event, Text):
                self._serializer.write(event)
            elif isinstance(event, EndDocument):
                break
        self._serializer.write(EndElement(scope.tag))
        scope.consumed = True

    # ----------------------------------------------------------- bindings

    def _evaluation_bindings(self) -> Dict[str, object]:
        bindings: Dict[str, object] = {}
        for name, binding in self._env.items():
            if isinstance(binding, _Scope):
                bindings[name] = StreamScopeNode(binding.tag, binding.attrs, binding.buffers)
            else:
                bindings[name] = binding
        return bindings

    # ------------------------------------------------------ process-stream

    def _eval_process_stream(self, op: ProcessStreamOp):
        binding = self._env.get(op.var)
        if not isinstance(binding, _Scope):
            raise EvaluationError(
                f"process-stream ${op.var} is not bound to an active stream element"
            )
        scope = binding
        if scope.consumed:
            raise EvaluationError(
                f"process-stream ${op.var}: the element's children were already consumed"
            )
        on_first_handlers = [
            handler for handler in op.handlers if isinstance(handler, OnFirstHandlerOp)
        ]
        satisfied: set = set()
        fired: set = set()

        def fire_ready(max_index: float):
            for handler in on_first_handlers:
                if handler.index in fired:
                    continue
                if handler.index >= max_index:
                    break
                ready = handler.always_satisfied or (
                    handler.condition_id is not None and handler.condition_id in satisfied
                )
                if not ready:
                    break
                fired.add(handler.index)
                yield from self._eval(handler.body)

        def fire_remaining():
            for handler in on_first_handlers:
                if handler.index not in fired:
                    fired.add(handler.index)
                    yield from self._eval(handler.body)

        if op.buffer_whole:
            scope.buffers.ensure_full_element(scope.tag, scope.attrs)

        while True:
            event = yield from _pull(scope.source)
            if event is _END_OF_INPUT:
                break
            if isinstance(event, OnFirstEvent):
                satisfied.add(event.condition_id)
                continue
            if isinstance(event, Text):
                if op.buffer_whole:
                    scope.buffers.append_full_text(event.text)
                continue
            if isinstance(event, StartElement):
                yield from self._process_child(op, scope, event, fire_ready)
                continue
            if isinstance(event, (EndElement, EndDocument)):
                yield from fire_remaining()
                scope.consumed = True
                return
        # The source was exhausted without an explicit end event (replayed
        # subtrees end exactly at their closing tag).
        yield from fire_remaining()
        scope.consumed = True

    def _process_child(
        self,
        op: ProcessStreamOp,
        scope: _Scope,
        event: StartElement,
        fire_ready,
    ):
        label = event.name
        handler_index = op.on_index.get(label)
        max_index = handler_index if handler_index is not None else math.inf
        need_buffer = op.buffer_whole or label in op.buffer_labels
        subtree: Optional[XMLElement] = None
        if need_buffer:
            subtree = yield from self._materialize(event, scope.source)
            if op.buffer_whole:
                scope.buffers.append_full_child(subtree)
            else:
                scope.buffers.add_child(label, subtree)
        yield from fire_ready(max_index)
        if handler_index is not None:
            handler = op.handlers[handler_index]
            assert isinstance(handler, OnHandlerOp)
            if subtree is not None:
                yield from self._run_handler_on_tree(handler, subtree)
            else:
                yield from self._run_handler_streaming(handler, event, scope.source)
        elif subtree is None:
            yield from self._skip_subtree(scope.source)

    # ------------------------------------------------------------ handlers

    def _run_handler_streaming(
        self, handler: OnHandlerOp, event: StartElement, source: Iterator[Event]
    ):
        child_scope = _Scope(
            tag=event.name,
            attrs=event.attributes,
            source=source,
            buffers=ScopeBuffers(self._buffers),
        )
        yield from self._with_binding(handler.var, child_scope, handler.body)
        if not child_scope.consumed:
            yield from self._skip_subtree(source)
        child_scope.buffers.close()

    def _run_handler_on_tree(self, handler: OnHandlerOp, subtree: XMLElement):
        events = tree_to_events(subtree)
        # Skip the subtree's own start tag: the scope reads children only.
        iterator = iter(events)
        first = next(iterator, None)
        if not isinstance(first, StartElement):  # pragma: no cover - defensive
            raise EvaluationError("replayed subtree did not start with a start tag")
        replay = XSAXReader(
            _chain_one(first, iterator), self.dtd, self.plan.conditions, validate=False
        )
        # Consume the start tag again from the XSAX reader so conditions of
        # the replayed element are tracked exactly as on the live stream.
        next(replay, None)
        child_scope = _Scope(
            tag=subtree.tag,
            attrs=dict(subtree.attrs),
            source=replay,
            buffers=ScopeBuffers(self._buffers),
        )
        yield from self._with_binding(handler.var, child_scope, handler.body)
        child_scope.buffers.close()

    def _with_binding(self, name: str, binding: Binding, body: PlanOp):
        previous = self._env.get(name)
        had_previous = name in self._env
        self._env[name] = binding
        try:
            yield from self._eval(body)
        finally:
            if had_previous:
                self._env[name] = previous
            else:
                self._env.pop(name, None)

    # --------------------------------------------------------------- input

    def _materialize(self, event: StartElement, source: Iterator[Event]):
        """Build the subtree rooted at ``event`` by consuming its events."""
        root = XMLElement(event.name, event.attributes)
        stack: List[XMLElement] = [root]
        while True:
            item = yield from _pull(source)
            if item is _END_OF_INPUT:
                break
            if isinstance(item, OnFirstEvent):
                continue
            if isinstance(item, StartElement):
                child = XMLElement(item.name, item.attributes)
                stack[-1].append(child)
                stack.append(child)
            elif isinstance(item, Text):
                stack[-1].append_text(item.text)
            elif isinstance(item, EndElement):
                stack.pop()
                if not stack:
                    return root
            elif isinstance(item, EndDocument):  # pragma: no cover - defensive
                break
        return root

    def _skip_subtree(self, source: Iterator[Event]):
        """Consume and discard the events of one child subtree."""
        depth = 0
        while True:
            item = yield from _pull(source)
            if item is _END_OF_INPUT:
                return
            if isinstance(item, StartElement):
                depth += 1
            elif isinstance(item, EndElement):
                if depth == 0:
                    return
                depth -= 1
            elif isinstance(item, EndDocument):  # pragma: no cover - defensive
                return


def _chain_one(first: Event, rest: Iterator[Event]) -> Iterator[Event]:
    yield first
    yield from rest


# ---------------------------------------------------------------- push mode


class _InlineSource:
    """Non-blocking event source backing a push session.

    ``feed`` appends events; iteration pops them, raising
    :class:`StarvedInput` when the buffer is empty but the input is still
    open — the signal that suspends the evaluation generator until the next
    ``feed``/``finish`` resumes it.
    """

    __slots__ = ("_events", "_closed")

    def __init__(self):
        self._events: "deque" = deque()
        self._closed = False

    def extend(self, events: Iterable[Event]) -> None:
        self._events.extend(events)

    def close(self) -> None:
        self._closed = True

    def __iter__(self) -> "Iterator[Event]":
        return self

    def __next__(self) -> Event:
        if self._events:
            return self._events.popleft()
        if self._closed:
            raise StopIteration
        raise StarvedInput


class EvaluatorSession:
    """Push-based execution of one physical plan.

    Exposes the resumable life cycle

    >>> session = EvaluatorSession(plan, dtd)          # doctest: +SKIP
    >>> session.start()                                # doctest: +SKIP
    >>> session.feed(events); session.feed(more)       # doctest: +SKIP
    >>> output, stats = session.finish()               # doctest: +SKIP

    The evaluation is a suspended generator that ``feed`` resumes on the
    caller's thread until it starves again, so evaluation errors surface
    synchronously from the ``feed`` that triggers them (and again from
    ``finish``).  ``feed`` accepts any iterable of events and may be
    called repeatedly; ``finish`` closes the input, drives the evaluation
    to completion and returns ``(output_xml, stats)``.  The session is
    single-use and single-driver: ``start``/``feed``/``finish`` come from
    one thread.  :meth:`abort` alone may be called from another thread,
    even while a ``feed`` is running: a generator that is mid-resume is
    then closed by the feeding thread when that resume returns.
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        dtd: Optional[DTD] = None,
        validate: bool = True,
        stats: Optional[RuntimeStats] = None,
    ):
        self._evaluator = StreamedEvaluator(plan, dtd, validate=validate)
        self._stats = stats if stats is not None else RuntimeStats()
        self._source = _InlineSource()
        self._generator = None
        self._sink = io.StringIO()
        self._started = False
        self._error: Optional[BaseException] = None
        self._result: Optional[Tuple[str, RuntimeStats]] = None
        self._aborted = False

    def start(self) -> "EvaluatorSession":
        """Begin execution; must be called once before :meth:`feed`."""
        if self._started:
            raise EvaluationError("session already started")
        self._started = True
        self._generator = self._evaluator.execute(self._source, self._sink, self._stats)
        self._resume()  # run up to the first input pull
        return self

    def _resume(self) -> None:
        """Advance the generator until it starves or completes.

        One resume consumes everything currently buffered: the generator
        only yields again once the source raises :class:`StarvedInput`.
        Errors are recorded (for finish()) and re-raised immediately.  An
        :meth:`abort` that landed from another thread while the generator
        was running is honoured here, on the feeding thread, the moment
        the resume returns.
        """
        generator = self._generator
        if generator is None:
            return
        try:
            next(generator)
        except StopIteration:
            self._generator = None
        except BaseException as exc:
            self._generator = None
            self._error = exc
            raise
        if self._aborted:
            self._generator = None
            _close_generator(generator)
            raise EvaluationError("session aborted")

    def feed(self, events: Iterable[Event]) -> None:
        """Push a batch of events into the running evaluation."""
        if not self._started:
            raise EvaluationError("feed() before start()")
        if self._aborted:
            raise EvaluationError("feed() on an aborted session")
        if self._result is not None:
            raise EvaluationError("feed() after finish()")
        if self._error is not None:
            # Fail fast instead of at finish(); finish() re-raises too.
            raise self._error
        if self._generator is None:
            # The plan already finished (early termination): surplus
            # input is dropped.
            return
        self._source.extend(events)
        self._resume()

    def finish(self) -> Tuple[str, RuntimeStats]:
        """Close the input and return ``(output_xml, stats)``.

        An aborted session has no result: its partial output must never be
        mistaken for a completed evaluation, so finish() raises instead.
        """
        if not self._started:
            raise EvaluationError("finish() before start()")
        if self._aborted:
            raise EvaluationError("finish() on an aborted session")
        if self._result is None:
            self._source.close()
            if self._error is not None:
                raise self._error
            self._resume()  # end of input: the generator must complete
            self._result = (self._sink.getvalue(), self._stats)
        return self._result

    def abort(self) -> None:
        """Stop the session, discarding its output; never raises.

        Safe from a thread other than the one feeding: a generator that is
        executing there cannot be closed from here, so it is left to
        :meth:`_resume` on the feeding thread, which sees ``_aborted`` when
        its current resume returns.
        """
        if not self._started or self._result is not None or self._aborted:
            return
        self._aborted = True
        generator, self._generator = self._generator, None
        if generator is not None:
            _close_generator(generator)


def _close_generator(generator) -> None:
    """Close an evaluation generator unless another thread is inside it.

    ``close()`` on a generator that is executing (resumed by the feeding
    thread, or mid-``close()`` by an aborting one) raises ``ValueError``;
    whichever thread is inside finishes the teardown.
    """
    try:
        generator.close()
    except ValueError:
        pass
