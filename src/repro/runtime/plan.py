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

:meth:`PhysicalPlan.read_trie` derives from the plan, once, what of the
document it can ever read — the paper's BDF as one forest of paths — and
three views read from it: the parser's skip trie
(:meth:`PhysicalPlan.skip_trie`; the tokenizer skips the rest without
building their events), the buffers' projection (:func:`needed_view` of
:func:`buffer_reads`) and, in a shared pass, each group's routing
(:class:`~repro.service.dispatcher.PlanProfile`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.xmlstream.parser import SKIP, SkipTrie
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
        self._read_trie: object = _UNDERIVED
        self._parser_trie: object = _UNDERIVED

    def __getstate__(self) -> dict:
        # The lowered expressions, closures and read tries are derived data
        # (keyed by object identity); a worker derives them again on its
        # first document.
        state = dict(self.__dict__)
        del state["_lowered"], state["_program"], state["_read_trie"], state["_parser_trie"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lowered = self._program = None
        self._read_trie = self._parser_trie = _UNDERIVED

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

    def read_trie(self) -> ReadTrie:
        """What the plan reads of the document, derived once per plan: the
        document node's read trie (``None`` when it may read everything).

        Below an element a ``process-stream`` reads, the trie lists its
        buffered labels — whole, or the spines of the BDF's paths below
        them — and its ``on`` labels.  An ``on`` child is read whole when
        its handler's variable is copied, rebound, or streamed by more
        than one ``process-stream``; a child whose variable no
        ``process-stream`` streams has none of its own children read.
        Below every other spine a child the DTD allows only text in is
        :data:`TEXT`.  Everything else is drained unread by the
        ``process-stream`` loop or left out of the buffers, so skipping it
        changes no output.
        """
        if self._read_trie is _UNDERIVED:
            self._read_trie = _element_reads(DOCUMENT_VARIABLE, self.root, self.dtd)
        return self._read_trie  # type: ignore[return-value]

    def skip_trie(self) -> Optional[SkipTrie]:
        """The parser's view of :meth:`read_trie` (:func:`_parser_view`),
        derived once per plan; ``None`` when it may read everything."""
        if self._parser_trie is _UNDERIVED:
            self._parser_trie = _parser_view(self.read_trie(), None, self.dtd)
        return self._parser_trie  # type: ignore[return-value]

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


class _TextOnly:
    """The read-trie kind of a child that only text may fill and nobody reads."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TEXT"


#: A read-trie node is ``None`` (read whole), :data:`TEXT` (an unread child
#: the DTD allows only text in), or a dict (the spine: the element and its
#: attributes, and of its children those listed; an unlisted child is
#: skipped).
TEXT = _TextOnly()

ReadTrie = Union[None, _TextOnly, Dict[str, "ReadTrie"]]


def _element_reads(var: str, body: PlanOp, dtd: "Optional[DTD]") -> ReadTrie:
    """What is read of the element bound to ``var`` while ``body`` runs."""
    streams: List[ProcessStreamOp] = []
    pending = [body]
    while pending:
        op = pending.pop()
        kind = type(op)
        if (kind is OnHandlerOp or kind is CopyVarOp) and op.var == var:  # type: ignore[attr-defined]
            return None  # rebound, or copied
        if kind is ProcessStreamOp and op.var == var:  # type: ignore[attr-defined]
            streams.append(op)  # type: ignore[arg-type]
        pending.extend(op.children())
    if not streams:
        return {}
    stream = streams[0]
    if len(streams) > 1 or stream.buffer_whole or WHOLE_SUBTREE in stream.buffer_labels:
        return None
    node = buffer_reads(stream, dtd)
    for label, index in stream.on_index.items():
        if label not in node:
            handler = stream.handlers[index]
            node[label] = _element_reads(handler.var, handler.body, dtd)
    return _spine(stream.element_type, node, dtd)


def buffer_reads(op: ProcessStreamOp, dtd: "Optional[DTD]") -> Dict[str, ReadTrie]:
    """``label -> read trie`` of the labels ``op`` buffers: whole, or the
    spines of ``op.buffer_paths``."""
    node: Dict[str, ReadTrie] = dict.fromkeys(op.buffer_labels)
    for path, whole in sorted(op.buffer_paths):  # a path sorts after its prefixes
        parent = node
        for name in path[:-1]:
            parent = parent[name]  # type: ignore[assignment]
        parent[path[-1]] = None if whole else _spine(path[-1], {}, dtd)
    return node


def _spine(element_type: str, node: Dict[str, ReadTrie], dtd: "Optional[DTD]") -> dict:
    """``node`` with :data:`TEXT` for every child the DTD allows only text in."""
    for label in _allowed(element_type, dtd) or ():
        child = dtd.element_tables()[label]  # type: ignore[union-attr]
        if child.remaining and not child.remaining[child.start]:
            node.setdefault(label, TEXT)
    return node


def _allowed(element_type: Optional[str], dtd: "Optional[DTD]") -> Optional[FrozenSet[str]]:
    """The children the DTD allows the element; ``None`` when it does not
    list them (undeclared, ``ANY``, or no DTD)."""
    if dtd is None or element_type is None or not dtd.has_element(element_type):
        return None
    table = dtd.element_tables()[element_type]
    return table.remaining[table.start] if table.remaining else None


def needed_view(node: ReadTrie) -> Optional[dict]:
    """The read trie without its :data:`TEXT` nodes: what must be kept."""
    if node is None or node is TEXT:
        return None
    return {label: needed_view(child) for label, child in node.items() if child is not TEXT}


def _parser_view(
    node: ReadTrie, element_type: Optional[str], dtd: "Optional[DTD]"
) -> Optional[SkipTrie]:
    """The read trie as the parser's skip trie: :data:`TEXT` nodes are read,
    because three events cost less than a skip, and a spine that reads
    every child its DTD allows is read whole, which delivers the same
    events with no trie below it."""
    if node is None or node is TEXT:
        return None
    trie = SkipTrie((label, _parser_view(child, label, dtd)) for label, child in node.items())
    allowed = _allowed(element_type, dtd)
    if allowed is not None and all(trie.get(label, SKIP) is None for label in allowed):
        return None
    return trie
