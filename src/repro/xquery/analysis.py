"""Static analysis over XQuery ASTs.

The optimizer and the FluX scheduler need a handful of classical analyses:

* :func:`free_variables` — which variables an expression references but does
  not bind;
* :func:`substitute_variable` — capture-avoiding substitution, used to
  eliminate ``let`` bindings during normalization;
* :func:`child_label_dependencies` — for a given stream variable, which child
  labels (first path steps) an expression touches; this is the ``dep`` set of
  the scheduling algorithm and the basis of the buffer description forest;
* :func:`projection_paths` — the paths below a variable's node an expression
  reads, as a trie (Marian & Siméon's projection): what the projection
  engine materializes of the document and the buffer description forest of
  each buffered label;
* :func:`variable_element_types` — a static type environment mapping each
  loop variable to the DTD element type it ranges over, which is what makes
  cardinality/order/co-occurrence constraints applicable to paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.dtd.schema import DTD
from repro.xquery.ast import (
    AndExpr,
    AttributeStep,
    ChildStep,
    Comparison,
    DescendantStep,
    DOCUMENT_VARIABLE,
    ElementConstructor,
    EmptySequence,
    ForExpr,
    FunctionCall,
    IfExpr,
    LetExpr,
    Literal,
    NotExpr,
    OrExpr,
    PathExpr,
    SequenceExpr,
    TextStep,
    VarRef,
    XQueryExpr,
)

#: Marker meaning "the whole subtree of the variable is needed" (e.g. the
#: variable is copied to the output, or reached through a descendant step).
WHOLE_SUBTREE = "*"

#: Pseudo element type of the document node (parent of the root element).
DOCUMENT_TYPE = "#document"

_fresh_counter = itertools.count(1)


def fresh_variable(prefix: str = "v") -> str:
    """Return a globally fresh variable name (used by rewrites)."""
    return f"__{prefix}{next(_fresh_counter)}"


# ----------------------------------------------------------- free variables


def free_variables(expr: XQueryExpr) -> FrozenSet[str]:
    """Variables referenced by ``expr`` that are not bound within it."""
    return _free(expr, frozenset())


def _free(expr: XQueryExpr, bound: FrozenSet[str]) -> FrozenSet[str]:
    if isinstance(expr, VarRef):
        return frozenset() if expr.name in bound else frozenset({expr.name})
    if isinstance(expr, PathExpr):
        return frozenset() if expr.var in bound else frozenset({expr.var})
    if isinstance(expr, ForExpr):
        result = _free(expr.source, bound)
        inner_bound = bound | {expr.var}
        if expr.where is not None:
            result |= _free(expr.where, inner_bound)
        return result | _free(expr.body, inner_bound)
    if isinstance(expr, LetExpr):
        return _free(expr.value, bound) | _free(expr.body, bound | {expr.var})
    result: FrozenSet[str] = frozenset()
    for child in expr.children():
        result |= _free(child, bound)
    return result


# ------------------------------------------------------------- substitution


def substitute_variable(expr: XQueryExpr, var: str, replacement: XQueryExpr) -> XQueryExpr:
    """Replace free occurrences of ``$var`` in ``expr`` by ``replacement``.

    Substitution into a :class:`PathExpr` rooted at ``$var`` is supported when
    the replacement is itself a variable or a path (the path is re-rooted);
    other replacements under a path raise ``ValueError`` — the normal-form
    pass only ever substitutes variables and paths.
    """
    if isinstance(expr, VarRef):
        return replacement if expr.name == var else expr
    if isinstance(expr, PathExpr):
        if expr.var != var:
            return expr
        if isinstance(replacement, VarRef):
            return PathExpr(replacement.name, expr.steps)
        if isinstance(replacement, PathExpr):
            return PathExpr(replacement.var, replacement.steps + expr.steps)
        raise ValueError(
            f"cannot substitute {replacement!r} into a path rooted at ${var}"
        )
    if isinstance(expr, ForExpr):
        source = substitute_variable(expr.source, var, replacement)
        if expr.var == var:
            return ForExpr(expr.var, source, expr.body, expr.where)
        where = (
            substitute_variable(expr.where, var, replacement)
            if expr.where is not None
            else None
        )
        return ForExpr(expr.var, source, substitute_variable(expr.body, var, replacement), where)
    if isinstance(expr, LetExpr):
        value = substitute_variable(expr.value, var, replacement)
        if expr.var == var:
            return LetExpr(expr.var, value, expr.body)
        return LetExpr(expr.var, value, substitute_variable(expr.body, var, replacement))
    if isinstance(expr, SequenceExpr):
        return SequenceExpr(
            tuple(substitute_variable(item, var, replacement) for item in expr.items)
        )
    if isinstance(expr, IfExpr):
        return IfExpr(
            substitute_variable(expr.condition, var, replacement),
            substitute_variable(expr.then_branch, var, replacement),
            substitute_variable(expr.else_branch, var, replacement),
        )
    if isinstance(expr, ElementConstructor):
        return ElementConstructor(
            expr.name, expr.attributes, substitute_variable(expr.content, var, replacement)
        )
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            substitute_variable(expr.left, var, replacement),
            substitute_variable(expr.right, var, replacement),
        )
    if isinstance(expr, AndExpr):
        return AndExpr(
            tuple(substitute_variable(operand, var, replacement) for operand in expr.operands)
        )
    if isinstance(expr, OrExpr):
        return OrExpr(
            tuple(substitute_variable(operand, var, replacement) for operand in expr.operands)
        )
    if isinstance(expr, NotExpr):
        return NotExpr(substitute_variable(expr.operand, var, replacement))
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name,
            tuple(substitute_variable(argument, var, replacement) for argument in expr.arguments),
        )
    return expr


# ----------------------------------------------------- child-label analysis


def child_label_dependencies(expr: XQueryExpr, var: str) -> FrozenSet[str]:
    """The ``dep`` set of the scheduling algorithm.

    Returns the set of child labels of ``$var`` that ``expr`` reads:

    * a path ``$var/l/...`` contributes ``l``;
    * ``$var`` itself (a bare variable reference), ``$var//...``,
      ``$var/*``, or ``$var/text()`` contribute the :data:`WHOLE_SUBTREE`
      marker (the entire element is needed);
    * attribute-only access ``$var/@a`` contributes nothing — attributes are
      available from the start tag and never require buffering.

    Bindings that shadow ``var`` (an inner ``for``/``let`` re-using the same
    name) are respected.
    """
    result: Set[str] = set()
    _collect_deps(expr, var, result)
    if WHOLE_SUBTREE in result:
        return frozenset({WHOLE_SUBTREE})
    return frozenset(result)


def _collect_deps(expr: XQueryExpr, var: str, out: Set[str]) -> None:
    if isinstance(expr, VarRef):
        if expr.name == var:
            out.add(WHOLE_SUBTREE)
        return
    if isinstance(expr, PathExpr):
        if expr.var != var:
            return
        if not expr.steps:
            out.add(WHOLE_SUBTREE)
            return
        first = expr.steps[0]
        if isinstance(first, AttributeStep):
            return
        if isinstance(first, ChildStep) and first.name != "*":
            out.add(first.name)
            return
        # Descendant, wildcard or text() as the first step: whole subtree.
        out.add(WHOLE_SUBTREE)
        return
    if isinstance(expr, ForExpr):
        _collect_deps(expr.source, var, out)
        if expr.var == var:
            return
        if expr.where is not None:
            _collect_deps(expr.where, var, out)
        _collect_deps(expr.body, var, out)
        return
    if isinstance(expr, LetExpr):
        _collect_deps(expr.value, var, out)
        if expr.var == var:
            return
        _collect_deps(expr.body, var, out)
        return
    for child in expr.children():
        _collect_deps(child, var, out)


# ---------------------------------------------------------- path projection


class ProjectionNode:
    """A node of a projection trie: one path of child steps below the root
    variable's node.

    A node with ``keep_subtree`` is needed whole (its text and everything
    below it); any other node is a *spine* node: its element and attributes
    must exist, its content only as far as its children say.
    """

    __slots__ = ("children", "keep_subtree")

    def __init__(self) -> None:
        self.children: Dict[str, "ProjectionNode"] = {}
        self.keep_subtree = False

    def child(self, label: str) -> "ProjectionNode":
        if label not in self.children:
            self.children[label] = ProjectionNode()
        return self.children[label]

    def paths(self, prefix: Tuple[str, ...] = ()) -> List[Tuple[Tuple[str, ...], bool]]:
        """All ``(path, keep_subtree)`` pairs of this subtree, ``prefix``
        included when not empty; nothing below a kept node is listed."""
        result: List[Tuple[Tuple[str, ...], bool]] = []
        if prefix:
            result.append((prefix, self.keep_subtree))
        if not self.keep_subtree:
            for label, child in sorted(self.children.items()):
                result.extend(child.paths(prefix + (label,)))
        return result


def projection_paths(
    expr: XQueryExpr, var: str = DOCUMENT_VARIABLE, root: Optional[ProjectionNode] = None
) -> ProjectionNode:
    """The projection trie of what ``expr`` reads below ``$var``'s node,
    folded into ``root`` when one is given.

    Loop sources contribute their spine; a path whose nodes are returned,
    copied, compared or passed to a function keeps the subtree of its last
    element step, and so does a descendant, wildcard or ``text()`` step
    anywhere; an attribute step adds nothing (attributes come with every
    element).  Variables are followed through ``for`` and ``let`` chains,
    shadowing included; one bound to what the analysis cannot follow (a
    source that is not a path) is read in full where it is bound.
    """
    if root is None:
        root = ProjectionNode()
    _collect_projection(expr, {var: root})
    return root


def _resolve_path(
    path: PathExpr, env: Dict[str, Optional[ProjectionNode]]
) -> Tuple[Optional[ProjectionNode], bool]:
    """Walk ``path`` through the projection trie: its last node (``None``
    when the variable is not tracked), and whether it ended on an
    attribute step."""
    node = env.get(path.var)
    if node is None:
        return None, False
    for step in path.steps:
        if isinstance(step, ChildStep) and step.name != "*":
            node = node.child(step.name)
        elif isinstance(step, AttributeStep):
            return node, True
        else:
            # A descendant, wildcard or text() step: everything below is needed.
            node.keep_subtree = True
            return node, False
    return node, False


def _bind(path: PathExpr, env: Dict[str, Optional[ProjectionNode]]) -> Optional[ProjectionNode]:
    """The node a variable bound by ``path`` ranges over; ``None`` (nothing
    to track) for attributes, which come with the element the path's spine
    already keeps."""
    node, attribute = _resolve_path(path, env)
    return None if attribute else node


def _collect_projection(expr: XQueryExpr, env: Dict[str, Optional[ProjectionNode]]) -> None:
    if isinstance(expr, PathExpr):
        node, attribute = _resolve_path(expr, env)
        if node is not None and not attribute:
            node.keep_subtree = True
        return
    if isinstance(expr, VarRef):
        node = env.get(expr.name)
        if node is not None:
            node.keep_subtree = True
        return
    if isinstance(expr, ForExpr):
        source: Optional[ProjectionNode] = None
        if isinstance(expr.source, PathExpr):
            source = _bind(expr.source, env)
        else:
            _collect_projection(expr.source, env)
        inner = dict(env)
        inner[expr.var] = source
        if expr.where is not None:
            _collect_projection(expr.where, inner)
        _collect_projection(expr.body, inner)
        return
    if isinstance(expr, LetExpr):
        bound: Optional[ProjectionNode] = None
        if isinstance(expr.value, PathExpr):
            bound = _bind(expr.value, env)
        elif isinstance(expr.value, VarRef):
            bound = env.get(expr.value.name)
        else:
            _collect_projection(expr.value, env)
        inner = dict(env)
        inner[expr.var] = bound
        _collect_projection(expr.body, inner)
        return
    for child in expr.children():
        _collect_projection(child, env)


def depends_on_children(expr: XQueryExpr, var: str) -> bool:
    """Whether ``expr`` needs anything from ``$var``'s *content* (child
    elements, text, or the whole subtree) — attribute access does not count."""
    return bool(child_label_dependencies(expr, var))


# ------------------------------------------------------------ element types


def variable_element_types(
    expr: XQueryExpr, dtd: Optional[DTD], initial: Optional[Dict[str, str]] = None
) -> Dict[str, str]:
    """Infer the DTD element type each variable ranges over.

    The document variable ``$ROOT`` has the pseudo-type
    :data:`DOCUMENT_TYPE`; a loop ``for $x in $y/a/b`` gives ``$x`` the type
    ``b`` (the last child step).  Variables whose type cannot be determined
    statically (descendant steps, wildcard steps, joins through ``let``) are
    omitted from the result, which makes every constraint lookup on them
    conservatively fail.
    """
    types: Dict[str, str] = dict(initial or {})
    types.setdefault(DOCUMENT_VARIABLE, DOCUMENT_TYPE)
    _infer_types(expr, types, dtd)
    return types


def _infer_types(expr: XQueryExpr, types: Dict[str, str], dtd: Optional[DTD]) -> None:
    if isinstance(expr, ForExpr):
        inferred = _type_of_path(expr.source, types, dtd)
        if inferred is not None:
            types[expr.var] = inferred
        _infer_types(expr.source, types, dtd)
        if expr.where is not None:
            _infer_types(expr.where, types, dtd)
        _infer_types(expr.body, types, dtd)
        return
    if isinstance(expr, LetExpr):
        inferred = _type_of_path(expr.value, types, dtd)
        if inferred is not None:
            types[expr.var] = inferred
        _infer_types(expr.value, types, dtd)
        _infer_types(expr.body, types, dtd)
        return
    for child in expr.children():
        _infer_types(child, types, dtd)


def _type_of_path(
    expr: XQueryExpr, types: Dict[str, str], dtd: Optional[DTD]
) -> Optional[str]:
    if isinstance(expr, VarRef):
        return types.get(expr.name)
    if not isinstance(expr, PathExpr):
        return None
    current = types.get(expr.var)
    for step in expr.steps:
        if isinstance(step, ChildStep) and step.name != "*":
            current = step.name
        elif isinstance(step, DescendantStep) and step.name != "*":
            current = step.name
        else:
            return None
    return current


def element_type_children(dtd: Optional[DTD], element_type: Optional[str]) -> FrozenSet[str]:
    """Child labels the DTD allows under ``element_type``.

    The pseudo-type :data:`DOCUMENT_TYPE` has exactly the root element as its
    only child.  Unknown types (or a missing DTD) return an empty set, which
    downstream code treats as "no schema knowledge".
    """
    if dtd is None or element_type is None:
        return frozenset()
    if element_type == DOCUMENT_TYPE:
        return frozenset({dtd.root})
    if not dtd.has_element(element_type):
        return frozenset()
    return frozenset(dtd.child_labels(element_type))
