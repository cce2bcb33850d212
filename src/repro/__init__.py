"""FluXQuery reproduction: an optimizing XQuery processor for streaming XML.

This package reproduces the system described in

    Koch, Scherzinger, Schweikardt, Stegmaier:
    "FluXQuery: An Optimizing XQuery Processor for Streaming XML Data",
    VLDB 2004 (demonstration),

together with the scheduling and buffer-minimization machinery of its
companion paper.  See ``docs/ARCHITECTURE.md`` for the system inventory and
``benchmarks/layered/README.md`` for the benchmark.

Quickstart
----------

>>> from repro import FluxEngine
>>> from repro.workloads import BIB_DTD_STRONG, generate_bibliography, get_query
>>> engine = FluxEngine(BIB_DTD_STRONG)
>>> document = generate_bibliography(num_books=5)
>>> result = engine.execute(get_query("BIB-Q3").xquery, document)
>>> result.peak_buffer_bytes
0

The three engines (``FluxEngine``, ``ProjectionEngine``, ``DomEngine``) share
one interface; the optimizer pipeline (``compile_xquery``) can also be used
on its own to inspect the generated FluX queries and buffer requirements.
"""

from repro.core.optimizer import OptimizedQuery, OptimizerPipeline, compile_xquery
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engines.base import Engine, QueryResult
from repro.engines.dom_engine import DomEngine
from repro.engines.flux_engine import FluxEngine
from repro.engines.projection_engine import ProjectionEngine
from repro.errors import (
    DTDSyntaxError,
    EvaluationError,
    ReproError,
    UnsafeFluxQueryError,
    UnsupportedFeatureError,
    WorkerCrashError,
    XMLSyntaxError,
    XMLValidationError,
    XQuerySyntaxError,
)
from repro.service import (
    AsyncQueryService,
    AsyncServicePool,
    FileDocument,
    PlanCache,
    ProcessServicePool,
    QueryService,
    ServicePool,
)
from repro.xquery.parser import parse_xquery

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "FluxEngine",
    "DomEngine",
    "ProjectionEngine",
    "Engine",
    "QueryResult",
    "OptimizerPipeline",
    "OptimizedQuery",
    "QueryService",
    "ServicePool",
    "ProcessServicePool",
    "FileDocument",
    "AsyncQueryService",
    "AsyncServicePool",
    "PlanCache",
    "WorkerCrashError",
    "compile_xquery",
    "parse_xquery",
    "parse_dtd",
    "DTD",
    "ReproError",
    "XMLSyntaxError",
    "XMLValidationError",
    "DTDSyntaxError",
    "XQuerySyntaxError",
    "UnsupportedFeatureError",
    "UnsafeFluxQueryError",
    "EvaluationError",
]
