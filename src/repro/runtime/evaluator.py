"""The streamed query evaluator.

"Finally, the physical query plan is executed by the streamed query
evaluator.  The latter uses our validating SAX parser, XSAX ... The streamed
query evaluator processes these events and delivers its output in turn as an
XML stream."  (Section 3.2 of the paper.)

Execution model
---------------

The physical plan is lowered once per plan to closures
(:mod:`repro.runtime.program` says how each operator runs).  The evaluator
runs them over the XSAX event stream and holds everything a run changes, so
every run shares the closures: the variable environment, the
:class:`~repro.runtime.buffers.BufferManager` (whose peak is the number the
memory benchmarks report), the incremental serializer and the statistics.

Push-based execution
--------------------

Every lowered operator that may consume an input event is a generator
that *suspends* (with a plain ``yield``) whenever the event source signals
:class:`StarvedInput`.  Over an ordinary pull source (an iterator that
blocks or ends) the generators never suspend, so one-shot
:meth:`StreamedEvaluator.run` keeps the paper's pull semantics unchanged.

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
from collections import deque
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.dtd.schema import DTD
from repro.errors import EvaluationError
from repro.runtime.buffers import BufferManager, ScopeBuffers
from repro.runtime.plan import PhysicalPlan
from repro.runtime.stats import RuntimeStats
from repro.runtime.xsax import XSAXReader
from repro.xmlstream.events import Event, StartDocument
from repro.xmlstream.serializer import EventSerializer


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


class StreamedEvaluator:
    """Executes a physical plan over an input event stream.

    The plan's closures are called with the evaluator: during :meth:`execute`
    it carries ``_env`` (variable → :class:`_Scope`), ``_buffers``,
    ``_serializer`` with its ``_emit``, and ``_stats``.
    """

    def __init__(self, plan: PhysicalPlan, dtd: Optional[DTD] = None, validate: bool = True):
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
        program = self.plan.program()
        stats = self._stats = stats if stats is not None else RuntimeStats()
        self._buffers = BufferManager(stats)
        sink = output if output is not None else io.StringIO()
        serializer = self._serializer = EventSerializer(sink)
        self._emit = serializer.emit
        self._env: Dict[str, _Scope] = {}
        stats.start_timer()
        try:
            reader = XSAXReader(
                events, self.dtd, self.plan.conditions, validate=self.validate, stats=stats
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
            yield from program(self)
            serializer.close()
            document_scope.buffers.close()
        finally:
            stats.stop_timer()
            stats.output_bytes = serializer.bytes_written
        return stats

    def run_to_string(
        self, events: Iterable[Event], stats: Optional[RuntimeStats] = None
    ) -> "tuple[str, RuntimeStats]":
        """Evaluate and return ``(output_xml, stats)``."""
        sink = io.StringIO()
        stats = self.run(events, sink, stats)
        return sink.getvalue(), stats


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
