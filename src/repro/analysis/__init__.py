"""Static query analyzer: buffer bounds.

The analyzer runs at compile time over the optimized physical plan plus
the DTD and answers the question the paper's whole approach revolves around: **how
much does each buffered region hold?**  :mod:`.bounds` lifts the
per-label occurrence bounds of the content models
(:func:`repro.dtd.automaton.axis_max_count`) over the element graph and
classifies every ``on-first`` handler the scheduler emitted as ``CONST``
(statically bounded), ``FANOUT`` (one repeating axis), or ``DOC``
(unbounded or recursive).

:mod:`.explain` renders the plan DAG and the bounds for ``repro explain``.
"""

from repro.analysis.bounds import (
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
from repro.analysis.explain import explain_compiled, render_plan

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
    "explain_compiled",
    "render_plan",
]
