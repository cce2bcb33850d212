"""Hot-loop purity checker (``HL0xx``).

ROADMAP open item 2 sets a speed ceiling for the per-event path: no
per-event allocations, no repeated attribute/global lookups that a local
would amortize, no ``isinstance`` dispatch, no ``try``/``except`` entry.
This checker enforces those rules for every function carrying a
``# hot-loop`` marker (on its ``def`` line or the line above), and
insists that the known per-event functions — the projection router, the
dispatcher feed, the incremental parser with its token scan and its
skipped-subtree scan, the validator's ``feed``, the XSAX reader's
``__next__`` with its start/end/skipped-subtree handlers and the lowered
process-stream loop of the evaluator — stay marked.

Rules:

* ``HL001`` — a per-call allocation: list/set/dict/tuple displays,
  comprehensions, generator expressions, lambdas, f-strings, calls to the
  allocating builtins (``list``, ``dict``, ``set``, ``frozenset``,
  ``bytearray``, ``tuple``) or to a CamelCase name (constructor by
  convention).
* ``HL002`` — the same attribute chain or global name is loaded two or
  more times per call without being hoisted into a local (chains that
  the function also *assigns* are exempt: a read-modify-write must go
  through the attribute).
* ``HL003`` — ``isinstance`` dispatch.
* ``HL004`` — ``try``/``except`` entry (Python sets up the handler on
  every entry; the hot path must not pay for the rare path).
* ``HL005`` — a function this repo promises is hot (see
  :data:`REQUIRED_HOT`) has lost its ``# hot-loop`` marker.

``# hot-loop-ok: <reason>`` on the offending line suppresses HL001-HL004;
the reason is mandatory (a bare marker is reported as the finding it
tried to suppress, plus ``HL006``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Checker, Finding, SourceFile

#: Functions that must stay marked ``# hot-loop`` (path suffix, qualname).
REQUIRED_HOT: Tuple[Tuple[str, str], ...] = (
    ("service/dispatcher.py", "SharedProjectionIndex.route"),
    ("service/dispatcher.py", "SharedProjectionIndex._route_start"),
    ("service/dispatcher.py", "SharedDispatcher.dispatch"),
    ("xmlstream/parser.py", "StreamingXMLParser.feed"),
    ("xmlstream/parser.py", "StreamingXMLParser._scan"),
    ("xmlstream/parser.py", "StreamingXMLParser._skip_scan"),
    ("dtd/validator.py", "StreamingValidator.feed"),
    ("runtime/xsax.py", "XSAXReader.__next__"),
    ("runtime/xsax.py", "XSAXReader._start"),
    ("runtime/xsax.py", "XSAXReader._end"),
    ("runtime/xsax.py", "XSAXReader._skipped"),
    ("runtime/program.py", "_lower_process_stream.<locals>.process_stream"),
)

_ALLOCATING_BUILTINS = {"list", "dict", "set", "frozenset", "bytearray", "tuple"}

#: Builtin names whose repeated lookup we tolerate (cheap, idiomatic).
_BENIGN_GLOBALS = {
    "len",
    "iter",
    "next",
    "range",
    "bool",
    "int",
    "str",
    "None",
    "True",
    "False",
    "min",
    "max",
    "abs",
    "id",
    "type",
}


def _is_camel_case(name: str) -> bool:
    bare = name.lstrip("_")
    return bool(bare) and bare[0].isupper() and not bare.isupper()


def _chain(node: ast.expr) -> Optional[str]:
    """``self._stack`` for an attribute chain rooted at a plain name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _FunctionScanner(ast.NodeVisitor):
    """One marked function: collect loads, stores, and rule hits."""

    def __init__(self) -> None:
        self.loads: List[Tuple[str, int]] = []
        self.stores: Set[str] = set()
        self.locals: Set[str] = set()
        self.allocations: List[Tuple[int, str]] = []
        self.isinstance_calls: List[int] = []
        self.tries: List[int] = []

    def scan_function(self, node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        args = node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            self.locals.add(arg.arg)
        if args.vararg is not None:
            self.locals.add(args.vararg.arg)
        if args.kwarg is not None:
            self.locals.add(args.kwarg.arg)
        for stmt in node.body:
            self.visit(stmt)

    # -- allocations --------------------------------------------------
    def _alloc(self, node: ast.AST, what: str) -> None:
        self.allocations.append((node.lineno, what))  # type: ignore[attr-defined]

    def visit_List(self, node: ast.List) -> None:
        if isinstance(node.ctx, ast.Load):
            self._alloc(node, "list display")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._alloc(node, "set display")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._alloc(node, "dict display")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._alloc(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._alloc(node, "generator expression")
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._alloc(node, "lambda")
        self.generic_visit(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        self._alloc(node, "f-string")
        # No generic_visit: the FormattedValue internals are part of it.

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "isinstance":
                self.isinstance_calls.append(node.lineno)
            elif func.id in _ALLOCATING_BUILTINS:
                self._alloc(node, f"{func.id}() call")
            elif _is_camel_case(func.id):
                self._alloc(node, f"{func.id}(...) construction")
        self.generic_visit(node)

    # -- try/except ---------------------------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        self.tries.append(node.lineno)
        self.generic_visit(node)

    # -- loads/stores -------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _chain(node)
        if chain is None:
            self.generic_visit(node)
            return
        if isinstance(node.ctx, ast.Load):
            self.loads.append((chain, node.lineno))
        else:
            self.stores.add(chain)
        # Do not descend: the chain is one lookup unit.

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loads.append((node.id, node.lineno))
        else:
            self.locals.add(node.id)
            self.stores.add(node.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.locals.add(node.name)
        self._alloc(node, "nested function definition")

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.locals.add(node.name)
        self._alloc(node, "nested function definition")

    def visit_comprehension(self, node: ast.comprehension) -> None:
        for name in ast.walk(node.target):
            if isinstance(name, ast.Name):
                self.locals.add(name.id)
        self.generic_visit(node)


class HotLoopChecker(Checker):
    name = "hot-loop"
    codes = {
        "HL001": "per-call allocation in a hot-loop function",
        "HL002": "repeated attribute/global load not hoisted to a local",
        "HL003": "isinstance dispatch in a hot-loop function",
        "HL004": "try/except entry in a hot-loop function",
        "HL005": "required hot function is missing its # hot-loop marker",
        "HL006": "hot-loop-ok annotation is missing its reason",
    }

    def check(self, module: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        marked: Dict[str, ast.AST] = {}

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    if self._is_marked(module, child):
                        marked[qualname] = child
                    walk(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(module.tree, "")

        for suffix, qualname in REQUIRED_HOT:
            if module.path.endswith(suffix) and qualname not in marked:
                findings.append(
                    self.finding(
                        "HL005",
                        module.path,
                        1,
                        f"{qualname} must carry a # hot-loop marker "
                        "(per-event path, ROADMAP item 2)",
                    )
                )

        for qualname, node in sorted(marked.items()):
            findings.extend(self._check_function(module, qualname, node))
        return findings

    def _is_marked(self, module: SourceFile, node: ast.AST) -> bool:
        line = node.lineno  # type: ignore[attr-defined]
        return module.has_marker(line, "hot-loop") or module.has_marker(line - 1, "hot-loop")

    def _suppressed(self, module: SourceFile, line: int, findings: List[Finding]) -> bool:
        reason = module.annotation_near(line, "hot-loop-ok")
        if reason is None:
            return False
        if not reason:
            findings.append(
                self.finding(
                    "HL006",
                    module.path,
                    line,
                    "'# hot-loop-ok:' needs a reason stating why the cost is accepted",
                )
            )
            return False
        return True

    def _check_function(
        self, module: SourceFile, qualname: str, node: ast.AST
    ) -> List[Finding]:
        findings: List[Finding] = []
        scanner = _FunctionScanner()
        scanner.scan_function(node)

        for line, what in scanner.allocations:
            if not self._suppressed(module, line, findings):
                findings.append(
                    self.finding(
                        "HL001", module.path, line, f"{qualname}: per-call allocation ({what})"
                    )
                )
        for line in scanner.isinstance_calls:
            if not self._suppressed(module, line, findings):
                findings.append(
                    self.finding(
                        "HL003",
                        module.path,
                        line,
                        f"{qualname}: isinstance dispatch (ROADMAP item 2 bans it "
                        "from the per-event loop)",
                    )
                )
        for line in scanner.tries:
            if not self._suppressed(module, line, findings):
                findings.append(
                    self.finding(
                        "HL004",
                        module.path,
                        line,
                        f"{qualname}: try/except entered on the hot path",
                    )
                )

        counts: Dict[str, List[int]] = {}
        for chain, line in scanner.loads:
            counts.setdefault(chain, []).append(line)
        for chain, lines in sorted(counts.items()):
            if len(lines) < 2:
                continue
            root = chain.split(".", 1)[0]
            if chain in scanner.stores:
                continue  # read-modify-write must go through the attribute
            if "." not in chain:
                # A bare name: only repeated *global* loads are findings.
                if chain in scanner.locals or chain in _BENIGN_GLOBALS:
                    continue
            elif root != "self" and root not in scanner.locals:
                # A chain rooted at a global (module.attr): still a repeated
                # lookup, keep it.
                pass
            line = sorted(lines)[1]
            if not self._suppressed(module, line, findings):
                findings.append(
                    self.finding(
                        "HL002",
                        module.path,
                        line,
                        f"{qualname}: {chain} loaded {len(lines)}x per call; "
                        "hoist it into a local",
                    )
                )
        return findings
