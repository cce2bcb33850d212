"""Abstract syntax tree for the supported XQuery fragment.

The node vocabulary covers the fragment described in the paper: FLWR
expressions (``for``/``let``/``where``/``return``), element constructors,
relative paths rooted at variables, conditionals, comparisons (including
joins), boolean connectives and a handful of built-in functions.  Aggregation
is outside the fragment (as stated in the paper's conclusions) and is
rejected by the parser.

Nodes are immutable dataclasses.  Rewrites (normal form, algebraic
optimization) construct new trees rather than mutating; helper constructors
(:func:`sequence_of`) keep the shapes canonical (no nested or single-item
sequences).

Every node can render itself back to XQuery syntax via ``to_xquery()``, which
is used for error messages, documentation, examples, and round-trip tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence as Seq, Tuple, Union

# --------------------------------------------------------------------- paths


@dataclass(frozen=True)
class Step:
    """Base class for path steps."""

    def to_xquery(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ChildStep(Step):
    """Child axis step ``/name`` (``*`` matches any element)."""

    name: str

    def to_xquery(self) -> str:
        return self.name


@dataclass(frozen=True)
class DescendantStep(Step):
    """Descendant-or-self shorthand ``//name``."""

    name: str

    def to_xquery(self) -> str:
        return f"/{self.name}"  # rendered after the joining "/" => "//name"


@dataclass(frozen=True)
class AttributeStep(Step):
    """Attribute step ``/@name``."""

    name: str

    def to_xquery(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class TextStep(Step):
    """Text-node step ``/text()``."""

    def to_xquery(self) -> str:
        return "text()"


# ---------------------------------------------------------------- base class


class XQueryExpr:
    """Base class for all XQuery expression nodes."""

    __slots__ = ()

    def to_xquery(self) -> str:
        """Render this expression in XQuery syntax."""
        raise NotImplementedError

    def children(self) -> Tuple["XQueryExpr", ...]:
        """Direct sub-expressions (used by generic traversals)."""
        return ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_xquery()!r})"


# ------------------------------------------------------------------- leaves


@dataclass(frozen=True, repr=False)
class Literal(XQueryExpr):
    """A string or numeric literal."""

    value: Union[str, int, float]

    def to_xquery(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("&", "&amp;").replace('"', '""')
            return f'"{escaped}"'
        return str(self.value)


@dataclass(frozen=True, repr=False)
class VarRef(XQueryExpr):
    """A variable reference ``$name``."""

    name: str

    def to_xquery(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True, repr=False)
class EmptySequence(XQueryExpr):
    """The empty sequence ``()``."""

    def to_xquery(self) -> str:
        return "()"


@dataclass(frozen=True, repr=False)
class PathExpr(XQueryExpr):
    """A relative path rooted at a variable: ``$var/step/.../step``.

    Absolute paths (``/bib/book``) are parsed as paths rooted at the
    implicit document variable ``$ROOT``.
    """

    var: str
    steps: Tuple[Step, ...]

    def to_xquery(self) -> str:
        rendered = [f"${self.var}"]
        for step in self.steps:
            rendered.append("/" + step.to_xquery())
        return "".join(rendered)


# -------------------------------------------------------------- composites


@dataclass(frozen=True, repr=False)
class SequenceExpr(XQueryExpr):
    """A sequence of expressions evaluated and concatenated in order."""

    items: Tuple[XQueryExpr, ...]

    def to_xquery(self) -> str:
        return "(" + ", ".join(item.to_xquery() for item in self.items) + ")"

    def children(self) -> Tuple[XQueryExpr, ...]:
        return self.items


@dataclass(frozen=True, repr=False)
class ForExpr(XQueryExpr):
    """``for $var in source [where condition] return body``.

    The optimizer's normal form removes ``where`` clauses (they become
    conditionals in the body), so downstream passes may assume
    ``where is None``.
    """

    var: str
    source: XQueryExpr
    body: XQueryExpr
    where: Optional[XQueryExpr] = None

    def to_xquery(self) -> str:
        where = f" where {self.where.to_xquery()}" if self.where is not None else ""
        return (
            f"for ${self.var} in {self.source.to_xquery()}{where} "
            f"return {self.body.to_xquery()}"
        )

    def children(self) -> Tuple[XQueryExpr, ...]:
        parts: List[XQueryExpr] = [self.source]
        if self.where is not None:
            parts.append(self.where)
        parts.append(self.body)
        return tuple(parts)


@dataclass(frozen=True, repr=False)
class LetExpr(XQueryExpr):
    """``let $var := value return body`` (eliminated by normalization)."""

    var: str
    value: XQueryExpr
    body: XQueryExpr

    def to_xquery(self) -> str:
        return (
            f"let ${self.var} := {self.value.to_xquery()} "
            f"return {self.body.to_xquery()}"
        )

    def children(self) -> Tuple[XQueryExpr, ...]:
        return (self.value, self.body)


@dataclass(frozen=True, repr=False)
class IfExpr(XQueryExpr):
    """``if (condition) then then_branch else else_branch``."""

    condition: XQueryExpr
    then_branch: XQueryExpr
    else_branch: XQueryExpr

    def to_xquery(self) -> str:
        return (
            f"if ({self.condition.to_xquery()}) "
            f"then {self.then_branch.to_xquery()} "
            f"else {self.else_branch.to_xquery()}"
        )

    def children(self) -> Tuple[XQueryExpr, ...]:
        return (self.condition, self.then_branch, self.else_branch)


@dataclass(frozen=True, repr=False)
class ElementConstructor(XQueryExpr):
    """A direct element constructor ``<name attr="...">{content}</name>``.

    Attribute values are literal strings (computed attribute values are
    outside the supported fragment).  ``content`` is a single expression —
    typically a :class:`SequenceExpr` mixing literal text and enclosed
    expressions.
    """

    name: str
    attributes: Tuple[Tuple[str, str], ...]
    content: XQueryExpr

    def to_xquery(self) -> str:
        attrs = "".join(
            f' {name}="{value.translate(_ATTRIBUTE_ESCAPES)}"' for name, value in self.attributes
        )
        if isinstance(self.content, EmptySequence):
            return f"<{self.name}{attrs}/>"
        return f"<{self.name}{attrs}>{{ {self.content.to_xquery()} }}</{self.name}>"

    def children(self) -> Tuple[XQueryExpr, ...]:
        return (self.content,)


@dataclass(frozen=True, repr=False)
class Comparison(XQueryExpr):
    """A general comparison ``left op right`` (``=``, ``!=``, ``<``, ...).

    Follows XQuery general-comparison semantics: existentially quantified
    over both operand sequences, numeric comparison when both values are
    numeric, string comparison otherwise.
    """

    op: str
    left: XQueryExpr
    right: XQueryExpr

    VALID_OPS = ("=", "!=", "<", "<=", ">", ">=")

    def to_xquery(self) -> str:
        return f"{self.left.to_xquery()} {self.op} {self.right.to_xquery()}"

    def children(self) -> Tuple[XQueryExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class AndExpr(XQueryExpr):
    """Conjunction ``a and b and ...``."""

    operands: Tuple[XQueryExpr, ...]

    def to_xquery(self) -> str:
        return " and ".join(
            f"({operand.to_xquery()})" for operand in self.operands
        )

    def children(self) -> Tuple[XQueryExpr, ...]:
        return self.operands


@dataclass(frozen=True, repr=False)
class OrExpr(XQueryExpr):
    """Disjunction ``a or b or ...``."""

    operands: Tuple[XQueryExpr, ...]

    def to_xquery(self) -> str:
        return " or ".join(f"({operand.to_xquery()})" for operand in self.operands)

    def children(self) -> Tuple[XQueryExpr, ...]:
        return self.operands


@dataclass(frozen=True, repr=False)
class NotExpr(XQueryExpr):
    """Negation ``not(expr)`` (effective boolean value)."""

    operand: XQueryExpr

    def to_xquery(self) -> str:
        return f"not({self.operand.to_xquery()})"

    def children(self) -> Tuple[XQueryExpr, ...]:
        return (self.operand,)


@dataclass(frozen=True, repr=False)
class FunctionCall(XQueryExpr):
    """A call to one of the supported built-in functions.

    Supported: ``exists``, ``empty``, ``string``, ``data``, ``true``,
    ``false``, ``not`` (``not`` is parsed into :class:`NotExpr`).
    """

    name: str
    arguments: Tuple[XQueryExpr, ...]

    SUPPORTED = ("exists", "empty", "string", "data", "true", "false")

    def to_xquery(self) -> str:
        args = ", ".join(argument.to_xquery() for argument in self.arguments)
        return f"{self.name}({args})"

    def children(self) -> Tuple[XQueryExpr, ...]:
        return self.arguments


# ------------------------------------------------------------------ helpers

#: Rendered attribute values escape what the parser expands or undoubles.
_ATTRIBUTE_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", '"': "&quot;", "{": "{{", "}": "}}"})


def sequence_of(items: Iterable[XQueryExpr]) -> XQueryExpr:
    """Build a canonical sequence: flattened, no empty items, unwrapped when
    the result has zero or one member."""
    flat: List[XQueryExpr] = []
    for item in items:
        if isinstance(item, SequenceExpr):
            flat.extend(item.items)
        elif isinstance(item, EmptySequence):
            continue
        else:
            flat.append(item)
    if not flat:
        return EmptySequence()
    if len(flat) == 1:
        return flat[0]
    return SequenceExpr(tuple(flat))


def sequence_items(expr: XQueryExpr) -> Tuple[XQueryExpr, ...]:
    """View any expression as a tuple of sequence items."""
    if isinstance(expr, SequenceExpr):
        return expr.items
    if isinstance(expr, EmptySequence):
        return ()
    return (expr,)


def walk(expr: XQueryExpr) -> Iterable[XQueryExpr]:
    """Yield ``expr`` and every descendant expression (pre-order)."""
    yield expr
    for child in expr.children():
        yield from walk(child)


#: Name of the implicit variable bound to the document node.
DOCUMENT_VARIABLE = "ROOT"
