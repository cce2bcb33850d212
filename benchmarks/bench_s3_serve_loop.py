"""Experiment S3 — the long-lived serving loop over a document stream.

PR 1/2 made one document cheap for N queries; this experiment measures what
*staying alive* across documents is worth.  A fleet of M standing queries
serves a stream of N documents three ways:

* **recreate** (the baseline this PR removes): a fresh ``QueryService`` —
  fresh plan cache, fresh compilations — per document, the way a one-shot
  process would be scripted;
* **serve/inline**: one long-lived service,
  :meth:`~repro.service.QueryService.serve` looping over the stream —
  plans compile once at registration and only the per-query runtimes are
  fresh per document;
* **serve/async**: the same loop driven by the asyncio front end
  (:class:`~repro.service.AsyncQueryService`) on a real event loop.

Reported per mode: wall-clock for the whole stream, optimizer compilations
paid (plan-cache misses), and parser events.  The acceptance bar: the serve
loop compiles each query exactly once however many documents arrive (the
recreate baseline pays M compilations per document), and every mode's
output for every (document, query) pair is byte-identical to a solo
``FluxEngine`` run.  Results land in
``benchmarks/results/s3_serve_loop.{json,txt}``.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Dict, List

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.service import AsyncQueryService, QueryService
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload

from conftest import RESULTS_DIR, write_report

#: Book counts of the served document stream (sizes vary like real traffic).
STREAM_BOOKS = [60, 120, 90, 150, 75, 105]

_REPORT: Dict[str, dict] = {}


@pytest.fixture(scope="module")
def document_stream() -> List[str]:
    return [
        generate_bibliography(num_books=books, seed=2004 + i)
        for i, books in enumerate(STREAM_BOOKS)
    ]


def _solo_outputs(specs, documents) -> List[Dict[str, str]]:
    engine = FluxEngine(BIB_DTD_STRONG)
    return [
        {spec.key: engine.execute(spec.xquery, document).output for spec in specs}
        for document in documents
    ]


def _run_recreate(specs, documents) -> dict:
    outputs, events, misses = [], 0, 0
    started = time.perf_counter()
    for document in documents:
        service = QueryService(BIB_DTD_STRONG)
        for spec in specs:
            service.register(spec.xquery, key=spec.key)
        results = service.run_pass(document)
        outputs.append({key: result.output for key, result in results.items()})
        events += service.metrics.parser_events_total
        misses += service.plan_cache.stats.misses
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "plan_compilations": misses,
        "parser_events": events,
        "outputs": outputs,
    }


def _run_serve(specs, documents) -> dict:
    service = QueryService(BIB_DTD_STRONG)
    for spec in specs:
        service.register(spec.xquery, key=spec.key)
    outputs = []
    started = time.perf_counter()
    for outcome in service.serve(documents):
        outputs.append(
            {key: result.output for key, result in outcome.results.items()}
        )
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "plan_compilations": service.plan_cache.stats.misses,
        "parser_events": service.metrics.parser_events_total,
        "outputs": outputs,
    }


def _run_serve_async(specs, documents) -> dict:
    service = AsyncQueryService(BIB_DTD_STRONG)
    for spec in specs:
        service.register(spec.xquery, key=spec.key)
    outputs = []

    async def drive():
        async for outcome in service.serve(documents):
            outputs.append(
                {key: result.output for key, result in outcome.results.items()}
            )

    started = time.perf_counter()
    asyncio.run(drive())
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "plan_compilations": service.plan_cache.stats.misses,
        "parser_events": service.metrics.parser_events_total,
        "outputs": outputs,
    }


def test_s3_serve_loop_vs_recreation(benchmark, document_stream):
    specs = queries_for_workload("bib")
    solo = _solo_outputs(specs, document_stream)

    holder = {}

    def target():
        holder["serve_inline"] = _run_serve(specs, document_stream)
        return holder["serve_inline"]

    benchmark.pedantic(target, rounds=1, iterations=1)
    modes = {
        "recreate": _run_recreate(specs, document_stream),
        "serve_inline": holder["serve_inline"],
        "serve_async": _run_serve_async(specs, document_stream),
    }

    # Correctness first: every mode, every document, every query — solo bytes.
    for mode, run in modes.items():
        assert run["outputs"] == solo, mode

    # The point of the loop: one compilation per query, not per (query, doc).
    assert modes["recreate"]["plan_compilations"] == len(specs) * len(document_stream)
    for mode in ("serve_inline", "serve_async"):
        assert modes[mode]["plan_compilations"] == len(specs), mode

    entry = {
        "documents": len(document_stream),
        "queries": len(specs),
        "document_bytes_total": sum(len(doc) for doc in document_stream),
        "modes": {
            mode: {k: v for k, v in run.items() if k != "outputs"}
            for mode, run in modes.items()
        },
        "serve_speedup_vs_recreate": (
            modes["recreate"]["elapsed_seconds"]
            / modes["serve_inline"]["elapsed_seconds"]
        ),
        "async_vs_inline": (
            modes["serve_async"]["elapsed_seconds"]
            / modes["serve_inline"]["elapsed_seconds"]
        ),
    }
    _REPORT["bib"] = entry
    benchmark.extra_info.update(
        {k: v for k, v in entry.items() if not isinstance(v, (dict, list))}
    )


@pytest.fixture(scope="module", autouse=True)
def report_s3():
    yield
    if not _REPORT:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "s3_serve_loop.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
    lines = [
        "S3: long-lived serving loop — one service over a document stream vs"
        " per-document service re-creation; async vs inline drivers",
        "",
    ]
    for workload in sorted(_REPORT):
        entry = _REPORT[workload]
        lines.append(
            f"{workload}: {entry['documents']} documents x {entry['queries']}"
            f" queries ({entry['document_bytes_total']} bytes total)"
        )
        lines.append(
            f"{'mode':<16}{'elapsed ms':>12}{'compilations':>14}{'parser events':>15}"
        )
        for mode in ("recreate", "serve_inline", "serve_async"):
            run = entry["modes"][mode]
            lines.append(
                f"{mode:<16}{run['elapsed_seconds'] * 1000:>12.1f}"
                f"{run['plan_compilations']:>14}{run['parser_events']:>15}"
            )
        lines.append(
            f"serve(inline) is {entry['serve_speedup_vs_recreate']:.2f}x the"
            f" recreate baseline; async costs"
            f" {entry['async_vs_inline']:.2f}x inline"
        )
        lines.append("")
    content = write_report("s3_serve_loop.txt", "\n".join(lines))
    print("\n" + content)
