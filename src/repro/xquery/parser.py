"""Recursive-descent parser for the supported XQuery fragment.

The parser reads the query a token at a time.  One compiled pattern,
``_TOKEN``, skips whitespace and ``(: ... :)`` comments and matches the
next token — a variable, a name, a number, a string literal or an
operator — with one ``match(text, pos)``; keywords are set lookups on a
name token.  Tokens are matched lazily at the cursor, so the parser never
reads past the construct it is in.  Direct element constructors switch to
XML content syntax: there the parser reads a text run at a time with a
second pattern, ``_CONTENT``, and switches back at ``{`` and at tags.

Supported syntax
----------------

* FLWR expressions: ``for $x in <expr> [where <expr>] return <expr>``,
  ``let $x := <expr> return <expr>`` (multiple ``for``/``let`` clauses are
  parsed as nested expressions);
* conditionals ``if (<expr>) then <expr> else <expr>``;
* direct element constructors with literal attributes, literal text content,
  nested constructors and enclosed expressions ``{ ... }``;
* relative paths ``$x/a/b``, ``$x//a``, ``$x/@attr``, ``$x/text()``, ``$x/*``
  and absolute paths ``/a/b`` (rooted at the implicit ``$ROOT`` variable);
* general comparisons ``= != < <= > >=`` and their keyword forms
  ``eq ne lt le gt ge``;
* boolean connectives ``and`` / ``or`` and the functions ``not``, ``exists``,
  ``empty``, ``string``, ``data``, ``true``, ``false``;
* parenthesized sequences ``(e1, e2, ...)`` and the empty sequence ``()``.

String literals, constructor content and attribute values expand the
predefined entity and character references (``&lt;``, ``&#32;``); content
and attribute values read ``{{`` and ``}}`` as literal braces; comments
nest.

Anything else (notably aggregation functions — outside the paper's fragment)
raises :class:`~repro.errors.UnsupportedFeatureError`.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from repro.errors import UnsupportedFeatureError, XMLSyntaxError, XQuerySyntaxError
from repro.xmlstream.parser import resolve_entities
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
    Step,
    TextStep,
    VarRef,
    XQueryExpr,
    sequence_of,
)

_NAME = r"[A-Za-z_][\w\-.]*"
#: Whitespace and comments.  A comment holding a nested ``(:`` (or never
#: closed) stops the skip at its ``(:``, for ``_Parser._skip_comment``.
_SKIP_PATTERN = r"(?:\s+|\(:(?:[^:(]|:(?!\))|\((?!:))*:\))*"
_SKIP = re.compile(_SKIP_PATTERN).match
#: Skip, then one token.  A variable token carries the child steps that
#: follow it with nothing in between (``$a/b/c``; ``text()`` is not a child
#: step).  A string literal ends at a quote no quote follows (``""`` inside
#: is a quote); an operator is any other character but an opening comment.
#: No token group matches at the end of the text or at a comment the skip
#: left.
_TOKEN = re.compile(
    _SKIP_PATTERN
    + rf"(?:\$(?P<var>{_NAME}(?:/(?!text\(\)){_NAME})*)|(?P<name>{_NAME})"
    + r"|(?P<number>\d+(?:\.\d+)?)"
    + r"""|"(?P<dq>[^"]*(?:""[^"]*)*)"(?!")|'(?P<sq>[^']*(?:''[^']*)*)'(?!')"""
    + r"|(?P<op>//|!=|<=|>=|:=|\((?!:)|[^\s(]))?"
).match
#: A text run of constructor content: up to a tag or a single ``{``.
_CONTENT = re.compile(r"[^<{]*(?:\{\{[^<{]*)*").match
_CALL = re.compile(r"\s*\(").match

_KEYWORD_COMPARISONS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_KEYWORDS = {"for", "let", "in", "where", "return", "if", "then", "else", "and", "or",
             *_KEYWORD_COMPARISONS}
_COMPARISONS = set(Comparison.VALID_OPS)
_AGGREGATES = {"count", "sum", "avg", "min", "max", "distinct-values"}


class _Parser:
    """Cursor over the query text and the token at the cursor.

    The token is matched when first asked for at a position: its kind is
    ``"var"``, ``"name"``, ``"number"``, ``"string"``, the operator itself,
    or ``""`` at the end.  A name's keyword (``_kw``) is the name, or what
    precedes its first ``.`` (``for.x`` starts with the keyword ``for``).
    """

    __slots__ = ("_text", "_pos", "_at", "_kind", "_value", "_start", "_end", "_kw")

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self._at = -1

    # ------------------------------------------------------------ plumbing

    def error(self, message: str) -> XQuerySyntaxError:
        return XQuerySyntaxError(message, self._start if self._at == self._pos else self._pos)

    def _peek(self) -> str:
        """Kind of the token at the cursor (matched once per position)."""
        pos = self._pos
        if self._at == pos:
            return self._kind
        text = self._text
        match = _TOKEN(text, pos)
        kind = match.lastgroup
        while kind is None and text.startswith("(:", match.end()):
            match = _TOKEN(text, self._skip_comment(match.end()))
            kind = match.lastgroup
        self._at = pos
        self._kw = None
        if kind is None:
            self._kind = ""
            self._start = self._end = match.end()
            return ""
        start, end = match.span(kind)
        value = text[start:end]
        if kind == "name":
            keyword = value if value in _KEYWORDS else value.partition(".")[0]
            if keyword in _KEYWORDS:
                self._kw = keyword
        elif kind == "op":
            kind = value
        elif kind == "var":
            start -= 1
        elif kind != "number":  # a string literal; a doubled quote is a quote
            quote = text[start - 1]
            value = _expand_references(value.replace(quote * 2, quote), start)
            kind, start, end = "string", start - 1, end + 1
        self._kind, self._value, self._start, self._end = kind, value, start, end
        return kind

    def _skip(self) -> int:
        """Move the cursor over whitespace and comments; return it."""
        text, pos = self._text, self._pos
        if not (text[pos : pos + 1].isspace() or text.startswith("(:", pos)):
            return pos
        pos = _SKIP(text, pos).end()
        while text.startswith("(:", pos):
            pos = _SKIP(text, self._skip_comment(pos)).end()
        self._pos = pos
        return pos

    def _skip_comment(self, start: int) -> int:
        """Skip the comment opening at ``start``; comments nest."""
        text, pos, depth = self._text, start, 0
        while True:
            opening = text.find("(:", pos)
            closing = text.find(":)", pos)
            if closing < 0:
                raise XQuerySyntaxError("unterminated XQuery comment (: ... :)", start)
            if 0 <= opening < closing:
                depth, pos = depth + 1, opening + 2
            else:
                depth, pos = depth - 1, closing + 2
                if not depth:
                    return pos

    def _accept(self, op: str) -> bool:
        if self._peek() == op:
            self._pos = self._end
            return True
        return False

    def _expect(self, op: str) -> None:
        if not self._accept(op):
            raise self.error(f"expected {op!r}")

    def _accept_keyword(self, keyword: str) -> bool:
        if self._peek() == "name" and self._kw == keyword:
            self._pos = self._start + len(keyword)
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            raise self.error(f"expected keyword {keyword!r}")

    def _name(self) -> str:
        if self._peek() != "name":
            raise self.error("expected a name")
        self._pos = self._end
        return self._value

    def _variable(self) -> str:
        """The variable at the cursor, without the steps its token carries."""
        if self._peek() != "var":
            self._expect("$")
            return self._name()
        var = self._value.partition("/")[0]
        self._pos = self._start + 1 + len(var)
        return var

    # ----------------------------------------------------------- top level

    def parse_query(self) -> XQueryExpr:
        expr = self.parse_expr()
        if self._peek():
            raise self.error("unexpected trailing text after the query")
        return expr

    def parse_expr(self) -> XQueryExpr:
        """Expr := ExprSingle ("," ExprSingle)*"""
        expr = self.parse_expr_single()
        if self._peek() != ",":
            return expr
        items = [expr]
        while self._accept(","):
            items.append(self.parse_expr_single())
        return sequence_of(items)

    def parse_expr_single(self) -> XQueryExpr:
        if self._peek() == "name":
            keyword = self._kw
            if keyword == "for":
                return self._parse_flwr()
            if keyword == "let":
                return self._parse_let()
            if keyword == "if":
                return self._parse_if()
        return self._parse_or()

    # --------------------------------------------------------------- FLWR

    def _parse_flwr(self) -> XQueryExpr:
        self._expect_keyword("for")
        bindings: List[Tuple[str, XQueryExpr]] = []
        while True:
            var = self._variable()
            self._expect_keyword("in")
            bindings.append((var, self.parse_expr_single()))
            # XQuery also allows chaining additional `for` clauses directly.
            if not (self._accept(",") or self._accept_keyword("for")):
                break
        where = self.parse_expr_single() if self._accept_keyword("where") else None
        self._expect_keyword("return")
        expr = self.parse_expr_single()
        # Multiple bindings nest left-to-right; the where clause attaches to
        # the innermost loop (it may reference every bound variable).
        for var, source in reversed(bindings):
            expr = ForExpr(var, source, expr, where)
            where = None
        return expr

    def _parse_let(self) -> XQueryExpr:
        self._expect_keyword("let")
        bindings: List[Tuple[str, XQueryExpr]] = []
        while True:
            var = self._variable()
            self._expect(":=")
            bindings.append((var, self.parse_expr_single()))
            if not self._accept(","):
                break
        self._expect_keyword("return")
        expr = self.parse_expr_single()
        for var, value in reversed(bindings):
            expr = LetExpr(var, value, expr)
        return expr

    def _parse_if(self) -> XQueryExpr:
        self._expect_keyword("if")
        self._expect("(")
        condition = self.parse_expr()
        self._expect(")")
        self._expect_keyword("then")
        then_branch = self.parse_expr_single()
        self._expect_keyword("else")
        return IfExpr(condition, then_branch, self.parse_expr_single())

    # ---------------------------------------------------------- operators

    def _parse_or(self) -> XQueryExpr:
        """Or := And ("or" And)*, And := Comparison ("and" Comparison)*"""
        expr = self._parse_comparison()
        if self._peek() != "name" or (self._kw != "and" and self._kw != "or"):
            return expr
        disjuncts: List[XQueryExpr] = []
        conjuncts = [expr]
        while True:
            keyword = self._kw if self._peek() == "name" else None
            if keyword != "and":
                disjuncts.append(conjuncts[0] if len(conjuncts) == 1 else AndExpr(tuple(conjuncts)))
                if keyword != "or":
                    return disjuncts[0] if len(disjuncts) == 1 else OrExpr(tuple(disjuncts))
                conjuncts = []
            self._pos = self._start + len(keyword)
            conjuncts.append(self._parse_comparison())

    def _parse_comparison(self) -> XQueryExpr:
        left = self._parse_primary()
        op = self._peek()
        if op in _COMPARISONS:
            self._pos = self._end
        elif op == "name" and self._kw in _KEYWORD_COMPARISONS:
            op = _KEYWORD_COMPARISONS[self._kw]
            self._pos = self._start + len(self._kw)
        else:
            return left
        return Comparison(op, left, self._parse_primary())

    # ------------------------------------------------------------ primary

    def _parse_primary(self) -> XQueryExpr:
        kind = self._peek()
        if kind == "var":
            self._pos = self._end
            var, *names = self._value.split("/")
            return self._parse_path(var, [ChildStep(name) for name in names])
        if kind == "$":
            return self._parse_path(self._variable(), [])
        if kind == "name":
            return self._parse_named()
        if kind == "/" or kind == "//":
            return self._parse_path(DOCUMENT_VARIABLE, [])
        if kind == "string" or kind == "number":
            value = self._value
            self._pos = self._end
            if kind == "number":
                value = float(value) if "." in value else int(value)
            return Literal(value)
        if kind == "<":
            self._pos = self._end
            return self._parse_constructor()
        if kind == "(":
            self._pos = self._end
            if self._accept(")"):
                return EmptySequence()
            expr = self.parse_expr()
            self._expect(")")
            return expr
        if kind == "{":
            # Tolerated extension: a braced expression outside a constructor
            # (the paper writes e.g. ``return { $a }``) is treated like a
            # parenthesized expression.
            self._pos = self._end
            expr = self.parse_expr()
            self._expect("}")
            return expr
        if not kind:
            raise self.error("unexpected end of query")
        if kind == '"' or kind == "'":
            raise self.error("unterminated string literal")
        raise self.error(f"unexpected character {kind[0]!r}")

    def _parse_named(self) -> XQueryExpr:
        name = self._value
        if name in _KEYWORDS:
            raise self.error(f"unexpected keyword {name!r}")
        # Whitespace may separate a function name from its "(", and so may
        # a comment, which is only checked while reading the arguments.
        if not _CALL(self._text, self._end):
            raise self.error(
                f"bare name {name!r} is not a valid expression "
                f"(paths must be rooted at a variable or start with '/')"
            )
        self._pos = self._end
        if name in _AGGREGATES:
            raise UnsupportedFeatureError(
                f"aggregation function {name}() is outside the supported XQuery "
                f"fragment (the paper's engine does not cover aggregation)"
            )
        self._expect("(")
        arguments: List[XQueryExpr] = []
        if not self._accept(")"):
            arguments.append(self.parse_expr_single())
            while self._accept(","):
                arguments.append(self.parse_expr_single())
            self._expect(")")
        if name == "not":
            if len(arguments) != 1:
                raise self.error("not() takes exactly one argument")
            return NotExpr(arguments[0])
        if name == "doc" or name == "document":
            # doc("...") denotes the (single) input document; path steps may
            # follow the call directly.
            return self._parse_path(DOCUMENT_VARIABLE, [])
        if name not in FunctionCall.SUPPORTED:
            raise UnsupportedFeatureError(
                f"function {name}() is outside the supported XQuery fragment"
            )
        return FunctionCall(name, tuple(arguments))

    # --------------------------------------------------------------- paths

    def _parse_path(self, var: str, steps: List[Step]) -> XQueryExpr:
        while True:
            kind = self._peek()
            if kind == "/":
                self._pos = self._end
                if self._accept("@"):
                    steps.append(AttributeStep(self._name()))
                    continue
                name = self._step_name()
                steps.append(TextStep() if name == "text()" else ChildStep(name))
            elif kind == "//":
                self._pos = self._end
                steps.append(DescendantStep(self._step_name()))
            else:
                return PathExpr(var, tuple(steps)) if steps else VarRef(var)

    def _step_name(self) -> str:
        if self._accept("*"):
            return "*"
        name = self._name()
        if name == "text" and self._text.startswith("()", self._pos):
            self._pos += 2
            return "text()"
        return name

    # --------------------------------------------------------- constructor

    def _parse_constructor(self) -> XQueryExpr:
        """The constructor whose ``<`` the cursor just passed."""
        name = self._name()
        text = self._text
        attributes: List[Tuple[str, str]] = []
        while True:
            pos = self._skip()
            if text.startswith("/>", pos):
                self._pos = pos + 2
                return ElementConstructor(name, tuple(attributes), EmptySequence())
            if text.startswith(">", pos):
                self._pos = pos + 1
                return ElementConstructor(name, tuple(attributes), self._parse_content(name))
            attribute = self._name()
            if not text.startswith("=", self._skip()):
                raise self.error("expected '='")
            self._pos += 1
            start = self._skip() + 1
            quote = text[start - 1 : start]
            if quote != '"' and quote != "'":
                raise self.error(f"attribute {attribute!r} value must be a quoted literal")
            end = text.find(quote, start)
            if end < 0:
                raise self.error(f"unterminated value for attribute {attribute!r}")
            value = text[start:end]
            if "{" in value.replace("{{", ""):
                raise UnsupportedFeatureError(
                    "computed attribute values are outside the supported fragment"
                )
            attributes.append((attribute, _content_text(value, start)))
            self._pos = end + 1

    def _parse_content(self, name: str) -> XQueryExpr:
        text = self._text
        items: List[XQueryExpr] = []
        while True:
            start = self._pos
            end = _CONTENT(text, start).end()
            if end == len(text):
                self._pos = end
                raise self.error(f"unterminated element constructor <{name}>")
            # Whitespace-only runs are boundary whitespace; a reference or
            # a doubled brace is content.
            run = text[start:end]
            if run.strip():
                items.append(Literal(_content_text(run, start)))
            self._pos = end + 1
            if text[end] == "{":
                items.append(self.parse_expr())
                self._expect("}")
            elif text[end + 1 : end + 2] != "/":
                items.append(self._parse_constructor())
            else:
                self._pos = end + 2
                closing = self._name()
                if closing != name:
                    raise self.error(f"closing tag </{closing}> does not match <{name}>")
                if not text.startswith(">", self._skip()):
                    raise self.error("expected '>'")
                self._pos += 1
                return sequence_of(items)


def _content_text(raw: str, position: int) -> str:
    """Constructor content or an attribute value, braces undoubled."""
    if "{" in raw or "}" in raw:
        raw = raw.replace("{{", "{").replace("}}", "}")
    return _expand_references(raw, position) if "&" in raw else raw


def _expand_references(text: str, position: int) -> str:
    """``text`` with its predefined entity and character references expanded."""
    try:
        return resolve_entities(text, position)
    except XMLSyntaxError as error:
        message = str(error).rsplit(" (at offset", 1)[0]
        raise XQuerySyntaxError(message, error.offset) from None


def parse_xquery(text: str) -> XQueryExpr:
    """Parse an XQuery string into its AST.

    Raises :class:`~repro.errors.XQuerySyntaxError` on malformed input and
    :class:`~repro.errors.UnsupportedFeatureError` for constructs outside the
    supported fragment.
    """
    return _Parser(text).parse_query()
