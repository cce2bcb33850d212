"""Benchmark harness and reporting.

:mod:`repro.bench.harness` runs (engine, query, document) combinations and
collects :class:`~repro.bench.harness.Measurement` rows;
:mod:`repro.bench.reporting` renders them as the tables and series the
``benchmarks/bench_*.py`` experiments print;
:mod:`repro.bench.fleets` is the differential fleet-testing harness behind
the S7 fleet-scaling bench and the multi-tenancy test suite (parameterized
alias fleets, shared-vs-solo byte comparison).
"""

from repro.bench.fleets import (
    FleetOutputMismatch,
    FleetQuery,
    alias_query,
    make_fleet,
    run_differential,
    run_shared,
    run_solo,
)
from repro.bench.harness import BenchmarkHarness, Measurement, run_comparison
from repro.bench.reporting import format_series, format_table, series_by

__all__ = [
    "BenchmarkHarness",
    "Measurement",
    "run_comparison",
    "format_table",
    "format_series",
    "series_by",
    "FleetQuery",
    "FleetOutputMismatch",
    "alias_query",
    "make_fleet",
    "run_differential",
    "run_shared",
    "run_solo",
]
