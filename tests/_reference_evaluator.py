"""Frozen oracle: the plan interpreter the streamed evaluator replaced.

Copied verbatim (class names aside) from ``repro.runtime.evaluator`` as it
stood before plans were lowered to closures (``repro.runtime.program``): a
seven-way ``isinstance`` dispatch per operator activation, a generator chain
per child, every output event written through the ``EventSerializer`` and a
buffered child replayed through a fresh XSAX reader.  It shares the XSAX
reader, the buffer manager, the buffered executor and the escaping with the
live evaluator, so it is a reference for the lowering only.  Do not optimize
or "fix" this file: ``tests/test_evaluator_differential.py`` holds the live
evaluator to it byte for byte and counter for counter.
"""

from __future__ import annotations

import io
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
from repro.xquery.evaluator import effective_boolean_value, string_value


class _Scope:
    """Runtime state of one ``process-stream`` element instance."""

    __slots__ = ("tag", "attrs", "source", "buffers", "consumed")

    def __init__(
        self, tag: str, attrs: Dict[str, str], source: Iterator[Event], buffers: ScopeBuffers
    ):
        self.tag = tag
        self.attrs = attrs
        self.source = source
        self.buffers = buffers
        self.consumed = False


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

class ReferenceEvaluator:
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
        # ``id(op) -> its on-first handlers``; the frozen ops cannot carry it.
        self._on_first: Dict[int, Tuple[OnFirstHandlerOp, ...]] = {}

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
        self._serializer = EventSerializer(output if output is not None else io.StringIO())
        self._env: Dict[str, Binding] = {}
        self._stats.start_timer()
        try:
            reader = XSAXReader(
                events, self.dtd, self.plan.conditions, validate=self.validate, stats=self._stats
            )
            while True:
                try:
                    first = next(reader, None)
                except StarvedInput:
                    yield _NEED_INPUT
                    continue
                break
            if first is not None and type(first) is not StartDocument:
                raise EvaluationError("input stream did not start with StartDocument")
            document_scope = _Scope("#document", {}, reader, ScopeBuffers(self._buffers))
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
            self._write_items(self._evaluate_buffered(op))
            return
        if isinstance(op, IfOp):
            holds = effective_boolean_value(self._evaluate_buffered(op))
            yield from self._eval(op.then_branch if holds else op.else_branch)
            return
        if isinstance(op, ProcessStreamOp):
            yield from self._eval_process_stream(op)
            return
        raise EvaluationError(f"cannot execute plan operator {op!r}")

    def _evaluate_buffered(self, op: Union[BufferedEvalOp, IfOp]) -> List[object]:
        """The value of ``op``'s expression over the bindings it reads."""
        lowered = self.plan.lowered()[id(op)]
        bindings: Dict[str, object] = {}
        for name in lowered.free_variables & self._env.keys():
            binding = self._env[name]
            if isinstance(binding, _Scope):
                binding = StreamScopeNode(binding.tag, binding.attrs, binding.buffers)
            bindings[name] = binding
        return lowered.evaluate(bindings, self._stats)

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
                self._serializer.write_all(tree_to_events(element))
                previous_atomic = False

    def _eval_copy(self, op: CopyVarOp):
        binding = self._env.get(op.var)
        if binding is None:
            raise EvaluationError(f"copy of unbound variable ${op.var}")
        if isinstance(binding, _Scope):
            if not binding.consumed and binding.buffers.full_element is None:
                # Copy the element to the output directly from the stream.
                write = self._serializer.write
                write(StartElement(binding.tag, tuple(binding.attrs.items())))
                yield from self._drain_subtree(binding.source, write)
                write(EndElement(binding.tag))
                binding.consumed = True
                return
            binding = StreamScopeNode(binding.tag, binding.attrs, binding.buffers).to_element()
        if isinstance(binding, XMLElement):
            self._serializer.write_all(tree_to_events(binding))
        else:
            self._serializer.write(Text(string_value(binding)))

    # ------------------------------------------------------ process-stream

    def _eval_process_stream(self, op: ProcessStreamOp):
        scope = self._env.get(op.var)
        if not isinstance(scope, _Scope):
            raise EvaluationError(
                f"process-stream ${op.var} is not bound to an active stream element"
            )
        if scope.consumed:
            raise EvaluationError(
                f"process-stream ${op.var}: the element's children were already consumed"
            )
        on_first = self._on_first.get(id(op))
        if on_first is None:
            on_first = self._on_first[id(op)] = tuple(
                [handler for handler in op.handlers if isinstance(handler, OnFirstHandlerOp)]
            )
        # On-first handlers fire strictly in order: on_first[:position] have.
        position = 0
        satisfied: set = set()
        source, buffers = scope.source, scope.buffers
        buffer_whole, buffer_labels, on_index = op.buffer_whole, op.buffer_labels, op.on_index
        if buffer_whole:
            buffers.ensure_full_element(scope.tag, scope.attrs)

        while True:
            try:
                event = next(source)
            except StarvedInput:
                yield _NEED_INPUT
                continue
            except StopIteration:
                # Replayed subtrees end exactly at their closing tag.
                break
            kind = type(event)
            if kind is StartElement:
                label = event.name
                handler_index = on_index.get(label)
                subtree: Optional[XMLElement] = None
                if buffer_whole or label in buffer_labels:
                    subtree = yield from self._materialize(event, source)
                    if buffer_whole:
                        buffers.append_full_child(subtree)
                    else:
                        buffers.add_child(label, subtree)
                # Satisfied handlers whose output precedes this child's.
                while position < len(on_first):
                    handler = on_first[position]
                    if (handler_index is not None and handler.index >= handler_index) or not (
                        handler.always_satisfied or handler.condition_id in satisfied
                    ):
                        break
                    position += 1
                    yield from self._eval(handler.body)
                if handler_index is not None:
                    yield from self._run_handler(op.handlers[handler_index], event, source, subtree)
                elif subtree is None:
                    yield from self._drain_subtree(source)
            elif kind is OnFirstEvent:
                satisfied.add(event.condition_id)
            elif kind is Text:
                if buffer_whole:
                    buffers.append_full_text(event.text)
            elif kind is EndElement or kind is EndDocument:
                break
        # The element closed: every ``past`` condition holds trivially.
        for handler in on_first[position:]:
            yield from self._eval(handler.body)
        scope.consumed = True

    # ------------------------------------------------------------ handlers

    def _run_handler(
        self,
        handler: OnHandlerOp,
        event: StartElement,
        source: Iterator[Event],
        subtree: Optional[XMLElement],
    ):
        """Run an ``on`` handler over the child opened by ``event``.

        The child's events come from ``source``, or — when the child had to
        be buffered as well — from a replay of ``subtree`` through an XSAX
        reader of its own, so the conditions of the replayed element are
        tracked exactly as on the live stream.
        """
        if subtree is not None:
            source = XSAXReader(
                tree_to_events(subtree), self.dtd, self.plan.conditions, validate=False
            )
            next(source)  # the subtree's own start tag: the scope reads children only
        child_scope = _Scope(event.name, event.attributes, source, ScopeBuffers(self._buffers))
        env, name = self._env, handler.var
        shadowed = env.get(name)
        env[name] = child_scope
        try:
            yield from self._eval(handler.body)
        finally:
            if shadowed is None:
                env.pop(name, None)
            else:
                env[name] = shadowed
        if subtree is None and not child_scope.consumed:
            yield from self._drain_subtree(source)
        child_scope.buffers.close()

    # --------------------------------------------------------------- input

    def _materialize(self, event: StartElement, source: Iterator[Event]):
        """Build the subtree rooted at ``event`` by consuming its events."""
        root = XMLElement(event.name, event.attributes)
        stack: List[XMLElement] = [root]
        while stack:
            try:
                item = next(source)
            except StarvedInput:
                yield _NEED_INPUT
                continue
            except StopIteration:
                break
            kind = type(item)
            if kind is StartElement:
                child = XMLElement(item.name, item.attributes)
                stack[-1].append(child)
                stack.append(child)
            elif kind is EndElement:
                stack.pop()
            elif kind is Text:
                stack[-1].append_text(item.text)
        return root

    def _drain_subtree(self, source: Iterator[Event], write=None):
        """Consume the events of one child subtree, up to and including its
        end tag; its content goes to ``write`` when given, else nowhere."""
        depth = 0
        while True:
            try:
                event = next(source)
            except StarvedInput:
                yield _NEED_INPUT
                continue
            except StopIteration:
                return
            kind = type(event)
            if kind is StartElement:
                depth += 1
            elif kind is EndElement:
                if depth == 0:
                    return
                depth -= 1
            elif kind is EndDocument:
                return
            elif kind is not Text:
                continue  # on-first events are not content
            if write is not None:
                write(event)


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


class ReferenceSession:
    """Push-based execution of one physical plan.

    Exposes the resumable life cycle

    >>> session = ReferenceSession(plan, dtd)          # doctest: +SKIP
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
        self._evaluator = ReferenceEvaluator(plan, dtd, validate=validate)
        self._stats = stats if stats is not None else RuntimeStats()
        self._source = _InlineSource()
        self._generator = None
        self._sink = io.StringIO()
        self._started = False
        self._error: Optional[BaseException] = None
        self._result: Optional[Tuple[str, RuntimeStats]] = None
        self._aborted = False

    def start(self) -> "ReferenceSession":
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
