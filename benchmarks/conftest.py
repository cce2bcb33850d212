"""Shared fixtures and helpers for the benchmark suite.

Every benchmark file regenerates one table or figure of the reproduced
evaluation (the committed benchmark is ``benchmarks/layered/README.md``).
Benchmarks are run by naming their files (``pytest benchmarks/bench_<x>.py``);
in addition to the pytest-benchmark timing table, each experiment writes its
memory/runtime table to ``benchmarks/results/<experiment>.txt`` so the
numbers can be regenerated verbatim.
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.bench.harness import Measurement
from repro.engines.dom_engine import DomEngine
from repro.engines.flux_engine import FluxEngine
from repro.engines.projection_engine import ProjectionEngine
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG, BIB_DTD_WEAK
from repro.workloads.xmark import generate_auction_site

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Number of books in the default per-query comparison document (~65 kB).
DEFAULT_BOOKS = 200

#: Book counts for the document-size scaling experiments (F3/F4).
SCALING_BOOKS = [50, 100, 200, 400, 800]


def make_engines(dtd) -> Dict[str, object]:
    """The three engines the evaluation compares."""
    return {
        "flux": FluxEngine(dtd),
        "projection": ProjectionEngine(dtd),
        "dom": DomEngine(dtd),
    }


@pytest.fixture(scope="session")
def bib_document() -> str:
    """The default strong-DTD bibliography document."""
    return generate_bibliography(num_books=DEFAULT_BOOKS, seed=2004)


@pytest.fixture(scope="session")
def bib_documents_by_size() -> Dict[str, str]:
    """Bibliography documents of increasing size (for F3/F4)."""
    return {
        f"bib-{books}": generate_bibliography(num_books=books, seed=2004)
        for books in SCALING_BOOKS
    }


@pytest.fixture(scope="session")
def weak_bib_document() -> str:
    """A weak-DTD bibliography (interleaved children) of the default size."""
    return generate_bibliography(num_books=DEFAULT_BOOKS, seed=2004, conform_to="weak")


@pytest.fixture(scope="session")
def auction_document() -> str:
    """The auction-site document (~160 kB)."""
    return generate_auction_site(scale=1.0, seed=2004)


@pytest.fixture(scope="session")
def bib_engines():
    return make_engines(BIB_DTD_STRONG)


@pytest.fixture(scope="session")
def auction_engines():
    return make_engines(AUCTION_DTD)


def run_and_record(benchmark, engine, engine_name, query, query_name, document, document_name,
                   collector: List[Measurement]):
    """Run ``engine`` on (query, document) under pytest-benchmark and record a
    measurement row for the experiment table."""
    if hasattr(engine, "compile"):
        # Compile outside the measured region: the paper reports evaluation
        # cost; query compilation is a one-time cost reported separately.
        engine.compile(query)
    result_holder = {}

    def target():
        result_holder["result"] = engine.execute(query, document)
        return result_holder["result"]

    benchmark.pedantic(target, rounds=1, iterations=1)
    result = result_holder["result"]
    benchmark.extra_info["engine"] = engine_name
    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["peak_buffer_bytes"] = result.stats.peak_buffer_bytes
    benchmark.extra_info["output_bytes"] = result.stats.output_bytes
    collector.append(
        Measurement(
            engine=engine_name,
            query=query_name,
            document=document_name,
            document_bytes=len(document),
            peak_buffer_bytes=result.stats.peak_buffer_bytes,
            elapsed_seconds=result.stats.elapsed_seconds,
            output_bytes=result.stats.output_bytes,
            events_processed=result.stats.events_processed,
        )
    )
    return result


def write_report(filename: str, *sections: str) -> str:
    """Write an experiment report to ``benchmarks/results/<filename>``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, filename)
    content = "\n\n".join(sections) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return content
