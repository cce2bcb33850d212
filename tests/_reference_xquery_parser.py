"""Frozen oracle: the scannerless XQuery parser, as it stood before the
token-driven rewrite of ``repro.xquery.parser``.

Copied verbatim (docstring aside) after three lexical fixes: predefined
entity and character references are expanded in string literals,
constructor content and attribute values; ``{{`` and ``}}`` are literal
braces in content and attribute values; ``(: ... :)`` comments nest.  It
probes the text a character at a time (``_skip_ws`` before nearly every
check, ``_at_keyword`` per keyword), which is what makes it a reference
for the token pattern.  Do not optimize or "fix" this file:
``tests/test_xquery_parser_differential.py`` holds the live parser to it,
AST for AST and exception class for exception class.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

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
    SequenceExpr,
    Step,
    TextStep,
    VarRef,
    XQueryExpr,
    sequence_of,
)

_NAME_RE = re.compile(r"[A-Za-z_][\w\-.]*")
_NUMBER_RE = re.compile(r"\d+(\.\d+)?")
_KEYWORDS = {
    "for",
    "let",
    "in",
    "where",
    "return",
    "if",
    "then",
    "else",
    "and",
    "or",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
}
_KEYWORD_COMPARISONS = {"eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_AGGREGATES = {"count", "sum", "avg", "min", "max", "distinct-values"}


class _Parser:
    """Stateful cursor over the query text."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0

    # ------------------------------------------------------------ plumbing

    def error(self, message: str) -> XQuerySyntaxError:
        return XQuerySyntaxError(message, self._pos)

    def _skip_ws(self) -> None:
        text, pos = self._text, self._pos
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
            elif text.startswith("(:", pos):
                pos = self._skip_comment(pos)
            else:
                break
        self._pos = pos

    def _skip_comment(self, start: int) -> int:
        """Skip the comment opening at ``start``; comments nest."""
        text, pos, depth = self._text, start, 0
        while True:
            opening = text.find("(:", pos)
            closing = text.find(":)", pos)
            if closing < 0:
                self._pos = start
                raise self.error("unterminated XQuery comment (: ... :)")
            if 0 <= opening < closing:
                depth, pos = depth + 1, opening + 2
            else:
                depth, pos = depth - 1, closing + 2
                if not depth:
                    return pos

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < len(self._text) else ""

    def _startswith(self, token: str) -> bool:
        return self._text.startswith(token, self._pos)

    def _consume(self, token: str) -> None:
        if not self._startswith(token):
            raise self.error(f"expected {token!r}")
        self._pos += len(token)

    def _try_consume(self, token: str) -> bool:
        if self._startswith(token):
            self._pos += len(token)
            return True
        return False

    def _at_keyword(self, keyword: str) -> bool:
        self._skip_ws()
        if not self._startswith(keyword):
            return False
        end = self._pos + len(keyword)
        if end < len(self._text) and (self._text[end].isalnum() or self._text[end] in "_-"):
            return False
        return True

    def _consume_keyword(self, keyword: str) -> None:
        if not self._at_keyword(keyword):
            raise self.error(f"expected keyword {keyword!r}")
        self._pos += len(keyword)

    def _try_keyword(self, keyword: str) -> bool:
        if self._at_keyword(keyword):
            self._pos += len(keyword)
            return True
        return False

    def _parse_name(self) -> str:
        self._skip_ws()
        match = _NAME_RE.match(self._text, self._pos)
        if not match:
            raise self.error("expected a name")
        self._pos = match.end()
        return match.group(0)

    def at_end(self) -> bool:
        self._skip_ws()
        return self._pos >= len(self._text)

    # ----------------------------------------------------------- top level

    def parse_query(self) -> XQueryExpr:
        expr = self.parse_expr()
        if not self.at_end():
            raise self.error("unexpected trailing text after the query")
        return expr

    def parse_expr(self) -> XQueryExpr:
        """Expr := ExprSingle ("," ExprSingle)*"""
        items = [self.parse_expr_single()]
        self._skip_ws()
        while self._try_consume(","):
            items.append(self.parse_expr_single())
            self._skip_ws()
        return sequence_of(items) if len(items) > 1 else items[0]

    def parse_expr_single(self) -> XQueryExpr:
        self._skip_ws()
        if self._at_keyword("for"):
            return self._parse_flwr()
        if self._at_keyword("let"):
            return self._parse_let()
        if self._at_keyword("if"):
            return self._parse_if()
        return self._parse_or()

    # --------------------------------------------------------------- FLWR

    def _parse_flwr(self) -> XQueryExpr:
        self._consume_keyword("for")
        bindings: List[Tuple[str, XQueryExpr]] = []
        while True:
            self._skip_ws()
            self._consume("$")
            var = self._parse_name()
            self._consume_keyword("in")
            source = self.parse_expr_single()
            bindings.append((var, source))
            self._skip_ws()
            if self._try_consume(","):
                continue
            # XQuery also allows chaining additional `for` clauses directly.
            if self._try_keyword("for"):
                continue
            break
        where: Optional[XQueryExpr] = None
        if self._try_keyword("where"):
            where = self.parse_expr_single()
        self._consume_keyword("return")
        body = self.parse_expr_single()
        # Multiple bindings nest left-to-right; the where clause attaches to
        # the innermost loop (it may reference every bound variable).
        expr: XQueryExpr = body
        for index in range(len(bindings) - 1, -1, -1):
            var, source = bindings[index]
            loop_where = where if index == len(bindings) - 1 else None
            expr = ForExpr(var=var, source=source, body=expr, where=loop_where)
        return expr

    def _parse_let(self) -> XQueryExpr:
        self._consume_keyword("let")
        bindings: List[Tuple[str, XQueryExpr]] = []
        while True:
            self._skip_ws()
            self._consume("$")
            var = self._parse_name()
            self._skip_ws()
            self._consume(":=")
            value = self.parse_expr_single()
            bindings.append((var, value))
            self._skip_ws()
            if not self._try_consume(","):
                break
        self._consume_keyword("return")
        body = self.parse_expr_single()
        expr: XQueryExpr = body
        for var, value in reversed(bindings):
            expr = LetExpr(var=var, value=value, body=expr)
        return expr

    def _parse_if(self) -> XQueryExpr:
        self._consume_keyword("if")
        self._skip_ws()
        self._consume("(")
        condition = self.parse_expr()
        self._skip_ws()
        self._consume(")")
        self._consume_keyword("then")
        then_branch = self.parse_expr_single()
        self._consume_keyword("else")
        else_branch = self.parse_expr_single()
        return IfExpr(condition, then_branch, else_branch)

    # ---------------------------------------------------------- operators

    def _parse_or(self) -> XQueryExpr:
        operands = [self._parse_and()]
        while self._try_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return OrExpr(tuple(operands))

    def _parse_and(self) -> XQueryExpr:
        operands = [self._parse_comparison()]
        while self._try_keyword("and"):
            operands.append(self._parse_comparison())
        if len(operands) == 1:
            return operands[0]
        return AndExpr(tuple(operands))

    def _parse_comparison(self) -> XQueryExpr:
        left = self._parse_primary()
        self._skip_ws()
        op = self._match_comparison_operator()
        if op is None:
            return left
        right = self._parse_primary()
        return Comparison(op, left, right)

    def _match_comparison_operator(self) -> Optional[str]:
        self._skip_ws()
        for keyword, symbol in _KEYWORD_COMPARISONS.items():
            if self._at_keyword(keyword):
                self._pos += len(keyword)
                return symbol
        for symbol in ("!=", "<=", ">=", "=", "<", ">"):
            if self._startswith(symbol):
                self._pos += len(symbol)
                return symbol
        return None

    # ------------------------------------------------------------ primary

    def _parse_primary(self) -> XQueryExpr:
        self._skip_ws()
        ch = self._peek()
        if ch == "":
            raise self.error("unexpected end of query")
        if ch == "$":
            return self._parse_path(self._parse_variable_root())
        if ch == "(":
            return self._parse_parenthesized()
        if ch == "{":
            # Tolerated extension: a braced expression outside a constructor
            # (the paper writes e.g. ``return { $a }``) is treated like a
            # parenthesized expression.
            self._consume("{")
            expr = self.parse_expr()
            self._skip_ws()
            self._consume("}")
            return expr
        if ch in "\"'":
            return Literal(self._parse_string_literal())
        if ch.isdigit():
            return self._parse_number()
        if ch == "<":
            return self._parse_constructor()
        if ch == "/":
            return self._parse_path(VarRef(DOCUMENT_VARIABLE), absolute=True)
        match = _NAME_RE.match(self._text, self._pos)
        if match:
            return self._parse_named(match.group(0))
        raise self.error(f"unexpected character {ch!r}")

    def _parse_variable_root(self) -> VarRef:
        self._consume("$")
        return VarRef(self._parse_name())

    def _parse_parenthesized(self) -> XQueryExpr:
        self._consume("(")
        self._skip_ws()
        if self._try_consume(")"):
            return EmptySequence()
        expr = self.parse_expr()
        self._skip_ws()
        self._consume(")")
        return expr

    def _parse_string_literal(self) -> str:
        quote = self._peek()
        self._pos += 1
        start = self._pos
        parts: List[str] = []
        while True:
            end = self._text.find(quote, self._pos)
            if end < 0:
                raise self.error("unterminated string literal")
            parts.append(self._text[self._pos : end])
            # A doubled quote is an escaped quote character.
            if self._text.startswith(quote * 2, end):
                parts.append(quote)
                self._pos = end + 2
                continue
            self._pos = end + 1
            break
        return _expand_references("".join(parts), start)

    def _parse_number(self) -> Literal:
        match = _NUMBER_RE.match(self._text, self._pos)
        if not match:
            raise self.error("malformed number literal")
        self._pos = match.end()
        text = match.group(0)
        return Literal(float(text) if "." in text else int(text))

    def _parse_named(self, name: str) -> XQueryExpr:
        if name in _KEYWORDS:
            raise self.error(f"unexpected keyword {name!r}")
        after = self._pos + len(name)
        rest = self._text[after:].lstrip()
        if rest.startswith("("):
            self._pos = after
            return self._parse_function_call(name)
        raise self.error(
            f"bare name {name!r} is not a valid expression "
            f"(paths must be rooted at a variable or start with '/')"
        )

    def _parse_function_call(self, name: str) -> XQueryExpr:
        if name in _AGGREGATES:
            raise UnsupportedFeatureError(
                f"aggregation function {name}() is outside the supported XQuery "
                f"fragment (the paper's engine does not cover aggregation)"
            )
        self._skip_ws()
        self._consume("(")
        arguments: List[XQueryExpr] = []
        self._skip_ws()
        if not self._try_consume(")"):
            arguments.append(self.parse_expr_single())
            self._skip_ws()
            while self._try_consume(","):
                arguments.append(self.parse_expr_single())
                self._skip_ws()
            self._consume(")")
        if name == "not":
            if len(arguments) != 1:
                raise self.error("not() takes exactly one argument")
            return NotExpr(arguments[0])
        if name == "doc" or name == "document":
            # doc("...") denotes the (single) input document; path steps may
            # follow the call directly.
            return self._parse_path(VarRef(DOCUMENT_VARIABLE))
        if name not in FunctionCall.SUPPORTED:
            raise UnsupportedFeatureError(
                f"function {name}() is outside the supported XQuery fragment"
            )
        return FunctionCall(name, tuple(arguments))

    # --------------------------------------------------------------- paths

    def _parse_path(self, root: XQueryExpr, absolute: bool = False) -> XQueryExpr:
        steps: List[Step] = []
        while True:
            if absolute and not steps:
                # We are positioned at the leading '/'.
                pass
            self._skip_ws()
            if self._startswith("//"):
                self._pos += 2
                steps.append(DescendantStep(self._parse_step_name()))
                continue
            if self._peek() == "/":
                self._pos += 1
                step = self._parse_step()
                steps.append(step)
                continue
            break
        if isinstance(root, VarRef):
            if not steps:
                return root
            return PathExpr(root.name, tuple(steps))
        raise self.error("paths may only be rooted at variables or '/'")

    def _parse_step(self) -> Step:
        self._skip_ws()
        if self._peek() == "@":
            self._pos += 1
            return AttributeStep(self._parse_name())
        if self._startswith("text()"):
            self._pos += len("text()")
            return TextStep()
        if self._peek() == "*":
            self._pos += 1
            return ChildStep("*")
        return ChildStep(self._parse_step_name())

    def _parse_step_name(self) -> str:
        self._skip_ws()
        if self._peek() == "*":
            self._pos += 1
            return "*"
        if self._startswith("text()"):
            self._pos += len("text()")
            return "text()"
        return self._parse_name()

    # --------------------------------------------------------- constructor

    def _parse_constructor(self) -> XQueryExpr:
        self._consume("<")
        name = self._parse_name()
        attributes: List[Tuple[str, str]] = []
        while True:
            self._skip_ws()
            if self._try_consume("/>"):
                return ElementConstructor(name, tuple(attributes), EmptySequence())
            if self._try_consume(">"):
                break
            attr_name = self._parse_name()
            self._skip_ws()
            self._consume("=")
            self._skip_ws()
            quote = self._peek()
            if quote not in "\"'":
                raise self.error(f"attribute {attr_name!r} value must be a quoted literal")
            self._pos += 1
            end = self._text.find(quote, self._pos)
            if end < 0:
                raise self.error(f"unterminated value for attribute {attr_name!r}")
            value = self._text[self._pos : end]
            if "{" in value.replace("{{", ""):
                raise UnsupportedFeatureError(
                    "computed attribute values are outside the supported fragment"
                )
            value = value.replace("{{", "{").replace("}}", "}")
            attributes.append((attr_name, _expand_references(value, self._pos)))
            self._pos = end + 1
        content = self._parse_constructor_content(name)
        return ElementConstructor(name, tuple(attributes), content)

    def _parse_constructor_content(self, name: str) -> XQueryExpr:
        items: List[XQueryExpr] = []
        text_parts: List[str] = []
        run_start = self._pos

        def flush_text() -> None:
            if text_parts:
                # Whitespace-only runs are boundary whitespace; a reference
                # or a doubled brace is content.
                text = "".join(text_parts)
                text_parts.clear()
                if text.strip():
                    text = text.replace("{{", "{").replace("}}", "}")
                    items.append(Literal(_expand_references(text, run_start)))

        while True:
            if self._pos >= len(self._text):
                raise self.error(f"unterminated element constructor <{name}>")
            ch = self._peek()
            if ch == "<":
                if self._startswith("</"):
                    flush_text()
                    self._consume("</")
                    closing = self._parse_name()
                    if closing != name:
                        raise self.error(
                            f"closing tag </{closing}> does not match <{name}>"
                        )
                    self._skip_ws()
                    self._consume(">")
                    return sequence_of(items)
                flush_text()
                items.append(self._parse_constructor())
            elif ch == "{" and not self._startswith("{{"):
                flush_text()
                self._pos += 1
                items.append(self.parse_expr())
                self._skip_ws()
                self._consume("}")
            else:
                if not text_parts:
                    run_start = self._pos
                step = 2 if self._startswith(ch * 2) and ch in "{}" else 1
                text_parts.append(self._text[self._pos : self._pos + step])
                self._pos += step


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
