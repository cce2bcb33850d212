"""Physical query plan operators.

The query compiler (:mod:`repro.runtime.compiler`) translates a FluX query
into a tree of the operators defined here.  The operators mirror the FluX
AST but carry everything the streamed evaluator needs precomputed:

* ``ProcessStreamOp`` knows, per child label, which handler consumes it
  (``on_index``), which labels must be buffered and which paths below them
  (from the BDF), whether the whole element must be materialized, and the
  registered XSAX condition id of every ``on-first`` handler;
* handler order is explicit (``index``), because output order is defined by
  the original XQuery sequence order and the evaluator fires ``on-first``
  handlers strictly in that order.

The plan is lowered once per plan to Python closures
(:meth:`PhysicalPlan.program`, :mod:`repro.runtime.program`), which
:class:`repro.runtime.evaluator.StreamedEvaluator` runs — the paper also
offers compilation to Java code.  The operators stay the explain, analysis,
structure-key and pickle form.

:meth:`PhysicalPlan.skip_trie` derives from the plan, once, which subtrees
of the document it can ever read: the tokenizer skips the rest without
building their events (:class:`~repro.xmlstream.parser.SkipTrie`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.xmlstream.parser import SkipTrie
from repro.xquery.analysis import WHOLE_SUBTREE
from repro.xquery.ast import DOCUMENT_VARIABLE, XQueryExpr

if TYPE_CHECKING:
    from repro.dtd.schema import DTD


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
    #: ``(path, kept whole)`` pairs below the element: what is materialized
    #: of each buffered label listed here (:meth:`BufferSpec.paths`); a
    #: buffered label listed nowhere is materialized whole, as it is in
    #: plans pickled before the field existed
    buffer_paths: FrozenSet[Tuple[Tuple[str, ...], bool]] = frozenset()

    def children(self) -> Tuple[PlanOp, ...]:
        return self.handlers


@dataclass
class PhysicalPlan:
    """A compiled FluX query, ready for streamed evaluation."""

    root: PlanOp
    conditions: "ConditionRegistry"
    bdf: "BufferDescriptionForest"
    dtd: Optional[object] = None

    def __post_init__(self) -> None:
        self._lowered: Optional[Dict[int, "LoweredExpr"]] = None
        self._program: Optional[Callable] = None
        self._skip_trie: object = _UNDERIVED

    def __getstate__(self) -> dict:
        # The lowered expressions, closures and skip trie are derived data
        # (keyed by object identity); a worker derives them again on its
        # first document.
        state = dict(self.__dict__)
        del state["_lowered"], state["_program"], state["_skip_trie"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lowered = self._program = None
        self._skip_trie = _UNDERIVED

    def lowered(self) -> Dict[int, "LoweredExpr"]:
        """``id(op) -> lowered expression`` of every buffered expression of
        the plan (:mod:`repro.runtime.buffered`), lowered once per plan."""
        if self._lowered is None:
            from repro.runtime.buffered import lower_plan

            self._lowered = lower_plan(self.root)
        return self._lowered

    def program(self) -> Callable:
        """The plan lowered to closures (:func:`repro.runtime.program.lower_program`),
        lowered once per plan."""
        if self._program is None:
            from repro.runtime.program import lower_program

            self._program = lower_program(self)
        return self._program

    def skip_trie(self) -> Optional[SkipTrie]:
        """What the plan reads of the document, as the parser's skip trie,
        derived once per plan; ``None`` when it may read everything.

        Below an element a ``process-stream`` reads, the trie lists its
        ``on`` labels and buffered labels.  A child is read whole (``None``)
        when it is buffered, and when its handler's variable is copied,
        rebound, or streamed by more than one ``process-stream``; a child
        whose variable no ``process-stream`` streams has none of its own
        children read.  Everything else is drained unread by the
        ``process-stream`` loop, so skipping it changes no output — except
        that a child the DTD allows only text in is listed as read: its
        three events cost less than a skip.
        """
        if self._skip_trie is _UNDERIVED:
            self._skip_trie = _reads(DOCUMENT_VARIABLE, self.root, self.dtd)
        return self._skip_trie  # type: ignore[return-value]

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


_UNDERIVED = object()


def _reads(var: str, body: PlanOp, dtd: "Optional[DTD]") -> Optional[SkipTrie]:
    """The skip trie of the element bound to ``var`` while ``body`` runs."""
    readers: List[PlanOp] = []
    if not _source_readers(var, body, readers):
        return None
    streams = [op for op in readers if type(op) is ProcessStreamOp]
    if len(streams) < len(readers) or len(streams) > 1:
        return None  # copied, or streamed twice
    if not streams:
        return SkipTrie()
    stream = streams[0]
    if stream.buffer_whole or WHOLE_SUBTREE in stream.buffer_labels:
        return None
    trie = SkipTrie(dict.fromkeys(stream.buffer_labels))
    for label, index in stream.on_index.items():
        if label not in trie:
            handler = stream.handlers[index]
            trie[label] = _reads(handler.var, handler.body, dtd)
    if dtd is not None and dtd.has_element(stream.element_type):
        tables = dtd.element_tables()
        table = tables[stream.element_type]
        for label in table.remaining[table.start] if table.remaining else ():
            child = tables[label]
            if child.remaining and not child.remaining[child.start]:
                trie.setdefault(label, None)
    return trie


def _source_readers(var: str, op: PlanOp, readers: List[PlanOp]) -> bool:
    """Collect the operators under ``op`` that read ``var``'s children from
    the stream (its ``process-stream`` and ``copy`` operators); ``False``
    when a handler below rebinds ``var``."""
    kind = type(op)
    if kind is OnHandlerOp and op.var == var:  # type: ignore[attr-defined]
        return False
    if (kind is ProcessStreamOp or kind is CopyVarOp) and op.var == var:  # type: ignore[attr-defined]
        readers.append(op)
    return all(_source_readers(var, child, readers) for child in op.children())
