"""The buffered executor: physical operators for buffered sub-expressions.

A ``BufferedEvalOp`` (and the condition of an ``IfOp``) carries an XQuery
expression over buffered subtrees.  The tree evaluator runs a value join in
it — ``for $p … for $c … if ($c/buyer/@person = $p/@id) then X else ()`` —
as a nested loop, one condition per pair.  :func:`lower_plan` walks each such
expression once per compiled plan and replaces every equi-join it recognises
by a :class:`HashJoin` node; everything else stays the expression it was and
is evaluated by :class:`~repro.xquery.evaluator.TreeEvaluator` unchanged.

What is recognised
------------------

A chain of ``for`` loops (normal form: no ``where``) whose innermost body is
``if (C) then X else ()``, where ``C`` is — or is an ``and`` containing — an
``=`` comparison between two paths: one rooted at a variable of an inner
sub-chain whose sources read no variable of the loops outside it (the
**build** side) and the other rooted at one of those outer loops (the
**probe** side).  The node sits at the outermost loop the build side is
invariant of.

How it runs
-----------

On the first outer binding the build sub-chain is enumerated once and each
binding tuple's position is filed under the :func:`join_key` of every value of
its build path.  Each outer binding then looks up the keys of its probe path,
unions the positions and evaluates ``X`` over those candidates *in build
order, after re-checking the original* ``C`` *on each* — so output order and
the existential ``=`` semantics are the nested loop's by construction, and
the table could only ever be wrong by dropping a pair.  :func:`join_key` is
derived from the one definition ``compare_atomic`` uses, which rules that out.

The table holds positions and the key strings the buffered subtrees already
own: it adds rows to ``join_build_rows`` / ``join_probes`` /
``join_candidates`` (``RuntimeStats.extra``) and no bytes to the buffer ledger,
which counts retained document content and never Python containers.

``TreeEvaluator`` itself, ``DomEngine`` and ``ProjectionEngine`` do not get
the join: they are the reference semantics this module is tested against.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.runtime.plan import BufferedEvalOp, IfOp, PlanOp
from repro.runtime.stats import RuntimeStats
from repro.xquery.analysis import free_variables
from repro.xquery.ast import (
    AndExpr,
    Comparison,
    EmptySequence,
    ForExpr,
    IfExpr,
    PathExpr,
    XQueryExpr,
    walk,
)
from repro.xquery.evaluator import (
    Item,
    TreeEvaluator,
    _as_number,
    atomize,
    effective_boolean_value,
)

#: One loop of a chain: the variable and the expression it ranges over.
Loop = Tuple[str, XQueryExpr]


def join_key(value: Union[str, int, float]) -> Union[str, float, None]:
    """The hash key under which ``value`` is ``=`` to exactly its equals.

    ``compare_atomic`` compares two values as doubles when both are numeric
    and as strings otherwise; a numeric and a non-numeric string are never
    equal as strings, so a float key and a string key never need to meet.
    NaN equals nothing and has no key.
    """
    number = _as_number(value)
    if number is None:
        return str(value)
    return number if number == number else None


@dataclass(frozen=True, repr=False)
class HashJoin(XQueryExpr):
    """``for outer… for build… if (condition) then body else ()`` as a join."""

    outer: Tuple[Loop, ...]
    build: Tuple[Loop, ...]
    build_key: PathExpr
    probe_key: PathExpr
    #: The whole of ``C``, re-checked on every candidate, and its operands
    #: other than the join comparison (what ``explain`` calls the residual).
    condition: XQueryExpr
    residual: Tuple[XQueryExpr, ...]
    body: XQueryExpr

    def children(self) -> Tuple[XQueryExpr, ...]:
        sources = tuple(source for _, source in self.outer + self.build)
        return sources + (self.condition, self.body)

    def to_xquery(self) -> str:
        loops = "".join(
            f"for ${var} in {source.to_xquery()} return " for var, source in self.outer + self.build
        )
        return f"{loops}if ({self.condition.to_xquery()}) then {self.body.to_xquery()} else ()"

    def describe(self) -> str:
        """The ``explain`` line: build path, probe path, residual condition."""
        text = f"hash-join build {self.build_key.to_xquery()} probe {self.probe_key.to_xquery()}"
        if self.residual:
            text += " residual " + " and ".join(operand.to_xquery() for operand in self.residual)
        return text

    # ----------------------------------------------------------- execution

    def run(self, evaluator: "BufferedEvaluator") -> List[Item]:
        result: List[Item] = []
        evaluate, env = evaluator.evaluate, evaluator._env
        build_vars = [var for var, _ in self.build]
        rows: List[Tuple[Item, ...]] = []
        index: Dict[Union[str, float], List[int]] = {}
        probes = candidates = 0

        def file_row() -> None:
            for key in {join_key(atomize(item)) for item in evaluate(self.build_key)}:
                if key is not None:
                    index.setdefault(key, []).append(len(rows))
            rows.append(tuple(env[var][0] for var in build_vars))

        def probe() -> None:
            nonlocal probes, candidates
            if not probes:
                # Built on the first outer binding: an empty outer side
                # evaluates nothing the nested loop would not have.
                _enumerate(evaluator, self.build, file_row)
            probes += 1
            keys = {join_key(atomize(item)) for item in evaluate(self.probe_key)}
            buckets = [index[key] for key in keys if key in index]
            # One bucket is already in build order; several are merged into it.
            positions = buckets[0] if len(buckets) == 1 else sorted(set().union(*buckets))
            candidates += len(positions)
            for position in positions:
                for var, item in zip(build_vars, rows[position]):
                    env[var] = [item]
                if effective_boolean_value(evaluate(self.condition)):
                    result.extend(evaluate(self.body))

        with ExitStack() as scope:
            # Candidates overwrite the build variables in place; whatever
            # they shadowed comes back when the join is done.
            for var in build_vars:
                scope.enter_context(evaluator._with_binding(var, []))
            _enumerate(evaluator, self.outer, probe)
        extra = evaluator.stats.extra
        for name, amount in (
            ("join_build_rows", len(rows)),
            ("join_probes", probes),
            ("join_candidates", candidates),
        ):
            extra[name] = extra.get(name, 0) + amount
        return result


def _enumerate(
    evaluator: "BufferedEvaluator", loops: Tuple[Loop, ...], visit: Callable[[], None]
) -> None:
    """Run ``visit`` under every binding tuple of the nested ``loops``."""
    if not loops:
        visit()
        return
    var, source = loops[0]
    for item in evaluator.evaluate(source):
        with evaluator._with_binding(var, [item]):
            _enumerate(evaluator, loops[1:], visit)


class BufferedEvaluator(TreeEvaluator):
    """``TreeEvaluator`` plus the physical nodes of this module."""

    def __init__(self, bindings: Dict[str, object], stats: RuntimeStats):
        super().__init__(bindings)
        self.stats = stats

    def evaluate(self, expr: XQueryExpr) -> List[Item]:
        if type(expr) is HashJoin:
            return expr.run(self)
        return super().evaluate(expr)


# ----------------------------------------------------------------- lowering


@dataclass(frozen=True)
class LoweredExpr:
    """One buffered expression as the runtime evaluates it."""

    #: The expression as compiled, and with its joins replaced by nodes.
    original: XQueryExpr
    expr: XQueryExpr
    #: The variables the expression reads from the evaluator's environment.
    free_variables: FrozenSet[str]
    #: The join nodes inside ``expr``, in pre-order (``explain`` prints them).
    joins: Tuple[HashJoin, ...]

    def evaluate(self, bindings: Dict[str, object], stats: RuntimeStats) -> List[Item]:
        """The value of the expression under ``bindings``.

        With a free variable unbound the interpreter runs the original
        loops, so the error is raised exactly where it always was.
        """
        if self.joins and self.free_variables <= bindings.keys():
            return BufferedEvaluator(bindings, stats).evaluate(self.expr)
        return TreeEvaluator(bindings).evaluate(self.original)


def lower_expression(expr: XQueryExpr) -> LoweredExpr:
    """Lower one buffered expression (see the module docstring)."""
    lowered = _lower(expr)
    joins = tuple(node for node in walk(lowered) if type(node) is HashJoin)
    return LoweredExpr(expr, lowered, free_variables(expr), joins)


def lower_plan(root: PlanOp) -> Dict[int, LoweredExpr]:
    """``id(op) -> lowered expression`` for every ``BufferedEvalOp`` and
    ``IfOp`` under ``root`` (the frozen ops cannot carry it themselves)."""
    lowered: Dict[int, LoweredExpr] = {}
    pending = [root]
    while pending:
        op = pending.pop()
        if isinstance(op, BufferedEvalOp):
            lowered[id(op)] = lower_expression(op.expr)
        elif isinstance(op, IfOp):
            lowered[id(op)] = lower_expression(op.condition)
        pending.extend(op.children())
    return lowered


def _lower(expr: XQueryExpr) -> XQueryExpr:
    if type(expr) is ForExpr:
        join = _recognise(expr)
        if join is not None:
            return join
    changes = {}
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        if isinstance(value, XQueryExpr):
            new = _lower(value)
            if new is not value:
                changes[field.name] = new
        elif isinstance(value, tuple) and value and isinstance(value[0], XQueryExpr):
            items = tuple(_lower(item) for item in value)
            if any(new is not old for new, old in zip(items, value)):
                changes[field.name] = items
    return dataclasses.replace(expr, **changes) if changes else expr


def _recognise(expr: ForExpr) -> Optional[HashJoin]:
    """The join rooted at ``expr``, or ``None``.

    Only a join whose outermost outer loop is ``expr`` itself is returned;
    :func:`_lower` descends into the body and so tries every later start,
    which puts the node at the outermost loop the build side allows.
    """
    loops: List[ForExpr] = []
    node: XQueryExpr = expr
    while type(node) is ForExpr and node.where is None:
        loops.append(node)
        node = node.body
    if not (type(node) is IfExpr and isinstance(node.else_branch, EmptySequence)):
        return None
    names = [loop.var for loop in loops]
    if len(set(names)) != len(names) or not free_variables(expr).isdisjoint(names):
        return None  # a loop variable shadows another binding: leave it to the interpreter
    condition = node.condition
    conjuncts = condition.operands if isinstance(condition, AndExpr) else (condition,)
    for operand in conjuncts:
        if not (isinstance(operand, Comparison) and operand.op == "="):
            continue
        for build_key, probe_key in ((operand.left, operand.right), (operand.right, operand.left)):
            if not (isinstance(build_key, PathExpr) and isinstance(probe_key, PathExpr)):
                continue
            if build_key.var not in names or probe_key.var not in names:
                continue
            first, last = names.index(probe_key.var) + 1, names.index(build_key.var)
            for start in range(first, last + 1):
                reads = frozenset().union(*(free_variables(loop.source) for loop in loops[start:]))
                if reads.isdisjoint(names[:start]):
                    return HashJoin(
                        outer=tuple((loop.var, _lower(loop.source)) for loop in loops[:start]),
                        build=tuple((loop.var, _lower(loop.source)) for loop in loops[start:]),
                        build_key=build_key,
                        probe_key=probe_key,
                        condition=condition,
                        residual=tuple(other for other in conjuncts if other is not operand),
                        body=_lower(node.then_branch),
                    )
    return None
