"""The buffer description forest (BDF).

"The query compiler ... first computes the buffer description forest data
structure, BDF for short, which defines those paths of the input document
which need to be buffered."  (Section 3.2 of the paper.)

Our BDF maps every ``process-stream`` variable of a FluX query to the child
labels of that variable that buffered sub-expressions read, and each such
label to the paths below it that they read:

* an ``on-first`` handler body ``for $a in $book/author return $a/last``
  contributes ``author`` to the entry for ``$book``, with the path
  ``author/last``: of every buffered ``author`` only the element, its
  attributes and its ``last`` children are materialized;
* a label is buffered whole when a bare reference, a descendant, wildcard
  or ``text()`` step, or a copy reaches its node, and when an ``on`` handler
  streams it too (the buffered child is replayed into the handler);
* a whole-subtree dependency of the variable itself (the handler copies
  ``$book``, or uses a descendant/``text()`` step on it) sets the
  ``whole_subtree`` flag — the runtime then materializes the entire element;
* labels consumed purely by streaming ``on`` handlers contribute nothing,
  which is exactly the saving over projection-style engines (compare
  Marian & Siméon [10]): data that can be processed on the fly is never
  buffered.

The paths are the projection of :func:`repro.xquery.analysis
.projection_paths`, rooted at the stream variable; the labels are the
scheduler's ``dep`` sets (:func:`repro.xquery.analysis
.child_label_dependencies`), which scheduling and the buffer bounds read.
Projected buffers are checked against engines that do not project:
``DomEngine`` and the frozen reference evaluator of the tests.

The BDF is both a runtime artifact (the compiler attaches each entry to its
``process-stream`` operator) and an analysis result that tests and the
memory model in the benchmarks inspect directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.flux import (
    FBufferedExpr,
    FCopyVar,
    FIf,
    FluxExpr,
    FluxQuery,
    FProcessStream,
    OnHandler,
)
from repro.xquery.analysis import (
    WHOLE_SUBTREE,
    ProjectionNode,
    child_label_dependencies,
    projection_paths,
)
from repro.xquery.ast import XQueryExpr

#: ``(path below the stream element, kept whole)`` pairs of the projected labels.
BufferPaths = FrozenSet[Tuple[Tuple[str, ...], bool]]


@dataclass
class BufferSpec:
    """Buffering requirements for one ``process-stream`` variable."""

    var: str
    element_type: str
    labels: Set[str] = field(default_factory=set)
    whole_subtree: bool = False
    #: What the buffered expressions read below the element (``None``
    #: until one reads anything).
    projection: Optional[ProjectionNode] = None
    #: Child labels an ``on`` handler streams.
    streamed: FrozenSet[str] = frozenset()

    def add_dependencies(self, deps: FrozenSet[str]) -> None:
        """Fold a dependency set (possibly containing the whole-subtree
        marker) into this spec."""
        if WHOLE_SUBTREE in deps:
            self.whole_subtree = True
            self.labels.update(label for label in deps if label != WHOLE_SUBTREE)
        else:
            self.labels.update(deps)

    @property
    def buffers_anything(self) -> bool:
        return self.whole_subtree or bool(self.labels)

    def paths(self) -> BufferPaths:
        """The paths materialized of every buffered label that is not
        buffered whole, relative to the element.  Nothing is listed when
        the whole element is buffered; a label is buffered whole when an
        ``on`` handler streams it or its node is kept whole."""
        if self.whole_subtree or self.projection is None:
            return frozenset()
        paths: List[Tuple[Tuple[str, ...], bool]] = []
        for label in self.labels - self.streamed:
            node = self.projection.children.get(label)
            if node is not None and not node.keep_subtree:
                paths.extend(node.paths((label,)))
        return frozenset(paths)

    def describe(self) -> str:
        if self.whole_subtree:
            return f"${self.var} ({self.element_type}): whole subtree"
        if not self.labels:
            return f"${self.var} ({self.element_type}): nothing"
        return f"${self.var} ({self.element_type}): {describe_buffers(self.labels, self.paths())}"


def describe_buffers(labels: Iterable[str], paths: BufferPaths) -> str:
    """The buffered labels as ``explain`` prints them: a label buffered
    whole by its name, a projected one by the leaves of its paths —
    ``a/b/c`` when ``c`` is kept whole, ``a/b/c/@*`` when only ``c``'s
    element and attributes are."""
    inner = {path[:-1] for path, _ in paths}
    projected = {path[0] for path, _ in paths}
    entries = [label for label in labels if label not in projected]
    entries.extend(
        "/".join(path) + ("" if whole else "/@*") for path, whole in paths if path not in inner
    )
    return ", ".join(sorted(entries))


class BufferDescriptionForest:
    """The collection of :class:`BufferSpec` entries of a FluX query."""

    def __init__(self) -> None:
        self._specs: Dict[str, BufferSpec] = {}

    def spec_for(self, var: str, element_type: str = "") -> BufferSpec:
        """The (created-on-demand) spec for ``$var``."""
        if var not in self._specs:
            self._specs[var] = BufferSpec(var=var, element_type=element_type)
        elif element_type and not self._specs[var].element_type:
            self._specs[var].element_type = element_type
        return self._specs[var]

    def get(self, var: str) -> Optional[BufferSpec]:
        return self._specs.get(var)

    def __iter__(self) -> Iterator[BufferSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def total_buffered_labels(self) -> int:
        """Number of (variable, label) pairs that require buffering."""
        return sum(len(spec.labels) for spec in self._specs.values())

    def buffering_variables(self) -> List[str]:
        """Variables that buffer at least one label (or a whole subtree)."""
        return [spec.var for spec in self._specs.values() if spec.buffers_anything]

    def describe(self) -> str:
        """Multi-line human-readable dump (used by examples and DESIGN docs)."""
        if not self._specs:
            return "(no buffers required)"
        return "\n".join(spec.describe() for spec in self._specs.values())


def build_bdf(query: FluxQuery) -> BufferDescriptionForest:
    """Compute the buffer description forest of a FluX query."""
    forest = BufferDescriptionForest()
    _walk(query.body, forest, active_vars=[])
    return forest


def _walk(expr: FluxExpr, forest: BufferDescriptionForest, active_vars: List[FProcessStream]) -> None:
    if isinstance(expr, FProcessStream):
        spec = forest.spec_for(expr.var, expr.element_type)
        for handler in expr.handlers:
            if isinstance(handler, OnHandler):
                spec.streamed |= {handler.label}
                _walk(handler.body, forest, active_vars + [expr])
            else:
                _mark_copies(handler.body, active_vars + [expr], forest)
                _walk(handler.body, forest, active_vars + [expr])
        return
    if isinstance(expr, FIf):
        for stream in active_vars:
            _read(expr.condition, stream, forest)
    if isinstance(expr, FBufferedExpr):
        for stream in active_vars:
            _read(expr.expr, stream, forest)
    for child in expr.children():
        _walk(child, forest, active_vars)


def _read(expr: XQueryExpr, stream: FProcessStream, forest: BufferDescriptionForest) -> None:
    """Fold what ``expr`` reads of ``stream``'s element into its spec."""
    deps = child_label_dependencies(expr, stream.var)
    if deps:
        spec = forest.spec_for(stream.var, stream.element_type)
        spec.add_dependencies(deps)
        spec.projection = projection_paths(expr, stream.var, spec.projection)


def _mark_copies(
    body: FluxExpr, streams: List[FProcessStream], forest: BufferDescriptionForest
) -> None:
    """Buffer a stream variable whole where an ``on-first`` handler body
    copies it.

    The body may copy the handler's own stream variable as well as (in
    degenerate schedules) an enclosing one; what the body's buffered
    expressions read is folded by :func:`_walk`.
    """
    if isinstance(body, FCopyVar):
        for stream in streams:
            if body.var == stream.var:
                forest.spec_for(stream.var).whole_subtree = True
        return
    for child in body.children():
        _mark_copies(child, streams, forest)
