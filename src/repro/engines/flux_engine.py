"""The FluXQuery engine: optimizer pipeline plus streamed runtime.

This engine is the end-to-end system of the paper (Figure 2): the XQuery is
compiled into an optimized FluX query, the FluX query into a physical plan
(with its buffer description forest and registered XSAX conditions), and the
plan is evaluated over the streaming input, producing the result as an output
XML stream and buffering only what the BDF requires.

Compiled queries support two execution styles:

* one-shot :meth:`CompiledFluxQuery.execute` pulls the whole document through
  the plan (the paper's model);
* :meth:`CompiledFluxQuery.start` opens a push-based
  :class:`FluxQuerySession` — ``feed(events)`` as they arrive, then
  ``finish()`` for the :class:`~repro.engines.base.QueryResult`.  This is
  what the multi-query service (``repro.service``) uses to run many plans
  over one shared scan.
"""

from __future__ import annotations

import io
from typing import Iterable, Optional, Union

from repro.core.optimizer import OptimizedQuery, OptimizerPipeline
from repro.dtd.schema import DTD
from repro.engines.base import Engine, QueryResult
from repro.obs import Observability
from repro.runtime.compiler import CompiledQueryPlan
from repro.runtime.evaluator import EvaluatorSession, StreamedEvaluator
from repro.runtime.plan_cache import PlanCache
from repro.runtime.plan import PhysicalPlan
from repro.xmlstream.events import Event
from repro.xmlstream.parser import StreamingXMLParser


class FluxEngine(Engine):
    """Schema-driven streaming XQuery engine (the paper's system).

    Parameters
    ----------
    dtd:
        The schema of the input documents.  Without a DTD the engine still
        runs, but no order/cardinality constraints are available and most
        sub-expressions fall back to buffered evaluation at element ends.
    validate:
        Whether XSAX validates the input against the DTD while parsing.
    enable_loop_merging / enable_conditional_elimination /
    enable_path_relativization / use_order_constraints:
        Ablation switches forwarded to the optimizer pipeline (benchmarks T6, F7).
    plan_cache:
        An existing :class:`~repro.runtime.plan_cache.PlanCache` to compile
        through — the same cache type (and, if shared, the same instance)
        the multi-query service uses, so a query registered with a service
        and executed solo by an engine pays the optimizer once.  By default
        the engine owns a fresh bounded cache of ``cache_size`` plans.
    obs:
        Optional :class:`~repro.obs.Observability` hub; one-shot
        :meth:`CompiledFluxQuery.execute` calls fold their runtime stats
        into its metrics registry (``repro_engine_*`` series).  Push-based
        sessions are not instrumented here — the multi-query service that
        drives them accounts for passes itself.
    """

    name = "flux"

    def __init__(
        self,
        dtd: Union[DTD, str, None] = None,
        validate: bool = True,
        enable_loop_merging: bool = True,
        enable_conditional_elimination: bool = True,
        enable_path_relativization: bool = True,
        use_order_constraints: bool = True,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = 128,
        obs: Optional[Observability] = None,
    ):
        super().__init__(dtd)
        self.validate = validate
        self.obs = obs
        self.pipeline = OptimizerPipeline(
            self.dtd,
            enable_loop_merging=enable_loop_merging,
            enable_conditional_elimination=enable_conditional_elimination,
            enable_path_relativization=enable_path_relativization,
            use_order_constraints=use_order_constraints,
        )
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(cache_size)

    # ------------------------------------------------------------ compile

    def compile(self, query: str) -> "CompiledFluxQuery":
        """Compile ``query`` through the plan cache.

        Repeated calls with the same text compile once (an LRU hit on the
        shared :class:`~repro.runtime.plan_cache.PlanCache`); the returned
        wrapper is a cheap per-call view over the cached
        :class:`~repro.runtime.compiler.CompiledQueryPlan`, so two calls
        return equal-but-distinct wrappers around one identical plan entry.
        Thread-safe: concurrent compilations of one query are single-flight.
        """
        entry, _ = self.plan_cache.get_or_compile(query, self.pipeline)
        return CompiledFluxQuery(self, entry)

    # ------------------------------------------------------------ execute

    def execute(self, query: str, document: Union[str, io.TextIOBase]) -> QueryResult:
        compiled = self.compile(query)
        return compiled.execute(document)


class CompiledFluxQuery:
    """A query compiled by the :class:`FluxEngine`, ready for execution."""

    def __init__(self, engine: FluxEngine, entry: CompiledQueryPlan):
        self.engine = engine
        self.entry = entry

    @property
    def query(self) -> str:
        return self.entry.source

    @property
    def optimized(self) -> OptimizedQuery:
        return self.entry.optimized

    @property
    def plan(self) -> PhysicalPlan:
        return self.entry.plan

    @property
    def flux_syntax(self) -> str:
        """The optimized query rendered in FluX syntax."""
        return self.entry.flux_syntax

    @property
    def buffer_description(self) -> str:
        """The buffer description forest of the compiled plan."""
        return self.entry.buffer_description

    def execute(self, document: Union[str, io.TextIOBase]) -> QueryResult:
        """Evaluate the compiled query over ``document`` (one-shot pull).

        The parser skips the subtrees the plan never reads
        (:meth:`~repro.runtime.plan.PhysicalPlan.skip_trie`).
        """
        evaluator = StreamedEvaluator(self.plan, self.engine.dtd, validate=self.engine.validate)
        events = StreamingXMLParser(document, skip=self.plan.skip_trie()).events()
        output, stats = evaluator.run_to_string(events)
        if self.engine.obs is not None:
            stats.observe(self.engine.obs, engine=self.engine.name)
        return QueryResult(output=output, stats=stats, engine=self.engine.name, query=self.query)

    def start(self, validate: Optional[bool] = None) -> "FluxQuerySession":
        """Open a push-based session: ``feed(events)``, then ``finish()``."""
        return FluxQuerySession(self, validate=validate)


class FluxQuerySession:
    """One push-based evaluation of a compiled FluX query.

    The session is started eagerly; callers push parser events with
    :meth:`feed` and collect the :class:`~repro.engines.base.QueryResult`
    with :meth:`finish`.  Output is byte-identical to the one-shot
    :meth:`CompiledFluxQuery.execute` over the same event stream.  The
    evaluation runs on the caller's thread inside ``feed``, so an
    evaluation error surfaces from the ``feed`` that triggers it (and
    again from ``finish``), not only at ``finish``.
    """

    def __init__(self, compiled: CompiledFluxQuery, validate: Optional[bool] = None):
        self.compiled = compiled
        if validate is None:
            validate = compiled.engine.validate
        self._session = EvaluatorSession(
            compiled.plan, compiled.engine.dtd, validate=validate
        )
        self._session.start()

    def feed(self, events: Iterable[Event]) -> None:
        """Push a batch of parser events into the evaluation."""
        self._session.feed(events)

    def finish(self) -> QueryResult:
        """Close the input and return the query result."""
        output, stats = self._session.finish()
        return QueryResult(
            output=output,
            stats=stats,
            engine=self.compiled.engine.name,
            query=self.compiled.query,
        )

    def abort(self) -> None:
        """Abandon the session, discarding any partial output."""
        self._session.abort()
