"""Query compiler: FluX query → physical plan.

"The query compiler transforms an optimized FluX query into a physical query
plan.  It first computes the buffer description forest data structure, BDF
for short, which defines those paths of the input document which need to be
buffered.  Based on the BDF, it schedules query operators, such as the
execution of process-stream expressions, the streamed execution of
for-where-return-statements, and buffer population."  (Section 3.2.)

Concretely the compiler

1. computes the BDF of the query (:func:`repro.runtime.bdf.build_bdf`),
2. registers every ``on-first`` condition with the XSAX
   :class:`~repro.runtime.xsax.ConditionRegistry`,
3. translates every FluX node into its physical operator, attaching the BDF
   entry (buffered labels and the paths materialized below them) and the
   handler dispatch table to each ``process-stream``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.core.optimizer import OptimizedQuery, OptimizerPipeline
from repro.dtd.schema import DTD
from repro.core.flux import (
    FBufferedExpr,
    FConstructor,
    FCopyVar,
    FIf,
    FluxExpr,
    FluxQuery,
    FProcessStream,
    FSequence,
    FText,
    OnFirstHandler,
    OnHandler,
)
from repro.errors import PlanError
from repro.runtime.bdf import BufferDescriptionForest, build_bdf
from repro.runtime.plan import (
    BufferedEvalOp,
    ConstructorOp,
    CopyVarOp,
    HandlerOp,
    IfOp,
    OnFirstHandlerOp,
    OnHandlerOp,
    PhysicalPlan,
    PlanOp,
    ProcessStreamOp,
    SequenceOp,
    TextOp,
)
from repro.runtime.xsax import ConditionRegistry
from repro.xquery.analysis import DOCUMENT_TYPE, WHOLE_SUBTREE
from repro.xquery.ast import XQueryExpr


class QueryCompiler:
    """Compiles FluX queries into physical plans."""

    def __init__(self, dtd: Optional[DTD] = None):
        self.dtd = dtd

    def compile(self, query: FluxQuery) -> PhysicalPlan:
        """Compile ``query`` (using its own DTD unless one was supplied)."""
        dtd = self.dtd if self.dtd is not None else query.dtd
        bdf = build_bdf(query)
        registry = ConditionRegistry()
        root = self._compile_expr(query.body, bdf, registry, dtd)
        return PhysicalPlan(root=root, conditions=registry, bdf=bdf, dtd=dtd)

    # ------------------------------------------------------------ internal

    def _compile_expr(
        self,
        expr: FluxExpr,
        bdf: BufferDescriptionForest,
        registry: ConditionRegistry,
        dtd: Optional[DTD],
    ) -> PlanOp:
        if isinstance(expr, FSequence):
            return SequenceOp(
                tuple(self._compile_expr(item, bdf, registry, dtd) for item in expr.items)
            )
        if isinstance(expr, FText):
            return TextOp(expr.text)
        if isinstance(expr, FConstructor):
            return ConstructorOp(
                expr.name,
                expr.attributes,
                self._compile_expr(expr.content, bdf, registry, dtd),
            )
        if isinstance(expr, FCopyVar):
            return CopyVarOp(expr.var)
        if isinstance(expr, FBufferedExpr):
            return BufferedEvalOp(expr.expr)
        if isinstance(expr, FIf):
            return IfOp(
                expr.condition,
                self._compile_expr(expr.then_branch, bdf, registry, dtd),
                self._compile_expr(expr.else_branch, bdf, registry, dtd),
            )
        if isinstance(expr, FProcessStream):
            return self._compile_process_stream(expr, bdf, registry, dtd)
        raise PlanError(f"cannot compile FluX node {expr!r}")

    def _compile_process_stream(
        self,
        node: FProcessStream,
        bdf: BufferDescriptionForest,
        registry: ConditionRegistry,
        dtd: Optional[DTD],
    ) -> ProcessStreamOp:
        handlers: Tuple[HandlerOp, ...] = ()
        on_index: Dict[str, int] = {}
        compiled: list = []
        for index, handler in enumerate(node.handlers):
            if isinstance(handler, OnHandler):
                if handler.label in on_index:
                    raise PlanError(
                        f"process-stream ${node.var} has two streaming handlers "
                        f"for label {handler.label!r}"
                    )
                on_index[handler.label] = index
                compiled.append(
                    OnHandlerOp(
                        index=index,
                        label=handler.label,
                        var=handler.var,
                        body=self._compile_expr(handler.body, bdf, registry, dtd),
                    )
                )
            else:
                compiled.append(
                    self._compile_on_first(handler, index, node, registry, dtd, bdf)
                )
        handlers = tuple(compiled)
        spec = bdf.get(node.var)
        buffer_labels: FrozenSet[str] = frozenset(spec.labels) if spec is not None else frozenset()
        buffer_whole = bool(spec.whole_subtree) if spec is not None else False
        return ProcessStreamOp(
            var=node.var,
            element_type=node.element_type,
            handlers=handlers,
            on_index=on_index,
            buffer_labels=buffer_labels,
            buffer_whole=buffer_whole,
            buffer_paths=spec.paths() if spec is not None else frozenset(),
        )

    def _compile_on_first(
        self,
        handler: OnFirstHandler,
        index: int,
        node: FProcessStream,
        registry: ConditionRegistry,
        dtd: Optional[DTD],
        bdf: BufferDescriptionForest,
    ) -> OnFirstHandlerOp:
        labels = handler.past_labels
        always_satisfied = not labels
        condition_id: Optional[int] = None
        fire_early_possible = (
            dtd is not None
            and not always_satisfied
            and WHOLE_SUBTREE not in labels
        )
        if fire_early_possible:
            condition_id = registry.register(node.element_type, labels)
        return OnFirstHandlerOp(
            index=index,
            labels=labels,
            condition_id=condition_id,
            always_satisfied=always_satisfied,
            body=self._compile_expr(handler.body, bdf, registry, dtd),
        )


def compile_flux(query: FluxQuery, dtd: Optional[DTD] = None) -> PhysicalPlan:
    """Convenience wrapper around :class:`QueryCompiler`."""
    return QueryCompiler(dtd).compile(query)


@dataclass
class CompiledQueryPlan:
    """End-to-end compilation artefact: XQuery text → physical plan.

    Bundles the optimizer output with the executable plan so callers that
    cache compilations (``FluxEngine``, the service plan cache) share one
    unit.  The same object can be executed any number of times, concurrently:
    all per-run state lives in the evaluator, not the plan.
    """

    source: str
    optimized: OptimizedQuery
    plan: PhysicalPlan
    #: Configuration digest of the pipeline that produced the plan (see
    #: :meth:`OptimizerPipeline.config_fingerprint`); part of cache keys.
    pipeline_config: str = ""

    def __getstate__(self) -> dict:
        # The structure key memo is derived data: a receiver keys the plan
        # by its own build's definition (older pickles carry it, too).
        return {name: value for name, value in self.__dict__.items() if name != "_structure_key"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.pop("_structure_key", None)

    @property
    def dtd(self) -> Optional[DTD]:
        return self.plan.dtd

    @property
    def flux_syntax(self) -> str:
        """The optimized query rendered in FluX syntax."""
        return self.optimized.flux.to_flux_syntax()

    @property
    def buffer_description(self) -> str:
        """The buffer description forest of the compiled plan."""
        return self.plan.bdf.describe()


def compile_query(
    query: Union[str, XQueryExpr],
    dtd: Optional[DTD] = None,
    pipeline: Optional[OptimizerPipeline] = None,
) -> CompiledQueryPlan:
    """Compile XQuery text (or its parsed AST) into an executable plan.

    ``pipeline`` lets callers reuse a configured :class:`OptimizerPipeline`
    (ablation switches, shared DTD); otherwise one is built from ``dtd``.
    """
    if pipeline is None:
        pipeline = OptimizerPipeline(dtd)
    optimized = pipeline.compile(query)
    plan = QueryCompiler(pipeline.dtd).compile(optimized.flux)
    return CompiledQueryPlan(
        source=optimized.source,
        optimized=optimized,
        plan=plan,
        pipeline_config=pipeline.config_fingerprint(),
    )
