"""Static query analyzer: buffer bounds, cost model, and mode selection.

This package is the *query* side of the static-analysis suite (the
sibling checkers in :mod:`repro.analysis` lint the codebase itself).  It
runs at compile time over the optimized physical plan plus the DTD and
answers three questions the paper's whole approach revolves around:

1. **How much does each buffered region hold?**  :mod:`.bounds` lifts the
   per-label occurrence bounds of the content models
   (:func:`repro.dtd.automaton.axis_max_count`) over the element graph and classifies every ``on-first`` handler the
   scheduler emitted as ``CONST`` (statically bounded), ``FANOUT`` (one
   repeating axis), or ``DOC`` (unbounded or recursive).
2. **How expensive is the query per document?**  :mod:`.cost` folds
   automaton fan-out with the plan's projection paths and condition arity
   into a predicted events-routed / items-buffered score, optionally
   calibrated by observed pass metrics persisted with the plan-cache
   snapshot (:class:`repro.runtime.plan_cache.PlanObservations`).
3. **How should the fleet run?**  :mod:`.modes` maps predicted cost ×
   document size × fleet shape to a pool backend (none, ``threads``,
   ``processes``) plus a worker count — the policy behind ``--execution
   auto`` / ``--backend auto``.

:mod:`.explain` renders all three for ``repro explain``.
"""

from repro.analysis.query.bounds import (
    CONST,
    DOC,
    FANOUT,
    REPEAT_ESTIMATE,
    BufferedAxis,
    HandlerBufferBound,
    PlanBufferAnalysis,
    classify_plan,
    estimate_count,
)
from repro.analysis.query.cost import (
    CostEstimate,
    apply_observations,
    estimate_cost,
    estimate_document_events,
    estimate_subtree_nodes,
    static_cost,
)
from repro.analysis.query.explain import explain_compiled, render_cost, render_mode, render_plan
from repro.analysis.query.modes import ModeDecision, select_mode

__all__ = [
    "CONST",
    "DOC",
    "FANOUT",
    "REPEAT_ESTIMATE",
    "BufferedAxis",
    "HandlerBufferBound",
    "PlanBufferAnalysis",
    "classify_plan",
    "estimate_count",
    "CostEstimate",
    "apply_observations",
    "estimate_cost",
    "estimate_document_events",
    "estimate_subtree_nodes",
    "static_cost",
    "ModeDecision",
    "select_mode",
    "explain_compiled",
    "render_cost",
    "render_mode",
    "render_plan",
]
