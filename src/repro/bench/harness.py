"""Benchmark harness: run engines over workloads and collect measurements.

The harness executes (engine, query, document) combinations, checks that all
engines produce identical output for the same (query, document) pair — the
qualitative precondition for any performance comparison — and returns flat
:class:`Measurement` rows that the reporting module formats into the tables
and figures the ``benchmarks/bench_*.py`` experiments print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.engines.base import Engine, QueryResult


@dataclass
class Measurement:
    """One engine × query × document data point."""

    engine: str
    query: str
    document: str
    document_bytes: int
    peak_buffer_bytes: int
    elapsed_seconds: float
    output_bytes: int
    events_processed: int
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def buffer_fraction(self) -> float:
        """Peak buffered bytes as a fraction of the document size."""
        if self.document_bytes == 0:
            return 0.0
        return self.peak_buffer_bytes / self.document_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "query": self.query,
            "document": self.document,
            "document_bytes": self.document_bytes,
            "peak_buffer_bytes": self.peak_buffer_bytes,
            "elapsed_seconds": self.elapsed_seconds,
            "output_bytes": self.output_bytes,
            "events_processed": self.events_processed,
            **self.extra,
        }


class OutputMismatchError(AssertionError):
    """Raised when two engines disagree on a query result."""


class BenchmarkHarness:
    """Runs engines over documents and collects measurements.

    Parameters
    ----------
    engines:
        Mapping from display name to engine instance.  The display name is
        what appears in the result tables (so ablation variants of the same
        engine class can be compared side by side).
    check_outputs:
        When true (default) the harness asserts that all engines return the
        same output string for the same query/document, raising
        :class:`OutputMismatchError` otherwise.
    """

    def __init__(self, engines: Dict[str, Engine], check_outputs: bool = True):
        self.engines = dict(engines)
        self.check_outputs = check_outputs
        self.measurements: List[Measurement] = []

    def run(
        self,
        query: str,
        document: str,
        query_name: str,
        document_name: str,
    ) -> List[Measurement]:
        """Run every engine on one (query, document) pair."""
        rows: List[Measurement] = []
        reference_output: Optional[str] = None
        reference_engine: Optional[str] = None
        for name, engine in self.engines.items():
            result = engine.execute(query, document)
            if self.check_outputs:
                if reference_output is None:
                    reference_output = result.output
                    reference_engine = name
                elif result.output != reference_output:
                    raise OutputMismatchError(
                        f"engines {reference_engine!r} and {name!r} disagree on "
                        f"query {query_name!r} over document {document_name!r}"
                    )
            rows.append(self._measurement(name, result, query_name, document_name, document))
        self.measurements.extend(rows)
        return rows

    def run_matrix(
        self,
        queries: Dict[str, str],
        documents: Dict[str, str],
    ) -> List[Measurement]:
        """Run every engine on the full query × document matrix."""
        rows: List[Measurement] = []
        for query_name, query in queries.items():
            for document_name, document in documents.items():
                rows.extend(self.run(query, document, query_name, document_name))
        return rows

    @staticmethod
    def _measurement(
        engine_name: str,
        result: QueryResult,
        query_name: str,
        document_name: str,
        document: str,
    ) -> Measurement:
        return Measurement(
            engine=engine_name,
            query=query_name,
            document=document_name,
            document_bytes=len(document),
            peak_buffer_bytes=result.stats.peak_buffer_bytes,
            elapsed_seconds=result.stats.elapsed_seconds,
            output_bytes=result.stats.output_bytes,
            events_processed=result.stats.events_processed,
        )


def run_comparison(
    engines: Dict[str, Engine],
    query: str,
    document: str,
    query_name: str = "query",
    document_name: str = "document",
    check_outputs: bool = True,
) -> List[Measurement]:
    """One-shot comparison of several engines on a single query/document."""
    harness = BenchmarkHarness(engines, check_outputs=check_outputs)
    return harness.run(query, document, query_name, document_name)
