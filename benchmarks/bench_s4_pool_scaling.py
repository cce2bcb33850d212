"""Experiment S4 — fault-isolated service pool: throughput scaling 1→8.

PR 3's serving loop overlaps *nothing*: one ``QueryService`` serves one
shared pass at a time, so while a document is still arriving the loop can
neither evaluate another document nor even start parsing the next one.
:class:`~repro.service.ServicePool` shards the stream across N mirrored
workers sharing one plan cache.  This experiment measures what that is
worth, in the regime the pool exists for and in the one it cannot help:

* **serving regime** (the headline): documents arrive as chunked *feeds*
  with per-chunk delivery latency
  (:class:`~repro.bench.feeds.LatencyFeedSource` — the serving worker's
  ``read()`` blocks like a socket would, releasing the GIL).  A single
  serve loop pays ``delivery + evaluation`` per document, serially; the
  pool hides delivery behind the other workers' evaluation.  Measured at 1, 2, 4, 8
  workers on bib and XMark fleets; the acceptance bar is **pool(4) ≥ 2×
  the single-service loop** in documents/second.
* **CPU-bound regime** (the honest footnote): the same documents as
  in-memory strings.  Under CPython's GIL the worker threads interleave
  instead of parallelizing, so the pool's throughput is ~1× — reported,
  not hidden (a multi-process shard is future work; see ROADMAP).

Also verified here, per the PR's acceptance criteria:

* **compile-once**: across the whole pool each distinct query is compiled
  exactly once — ``misses`` (now counting only real compilations) equals
  the fleet size even with every worker registering concurrently; the
  followers surface as the new ``coalesced`` counter;
* **fault isolation**: a malformed document injected mid-stream yields an
  error-tagged ``ServedDocument`` while every other document's results
  stay byte-identical to solo ``FluxEngine`` runs.

Results land in ``benchmarks/results/s4_pool_scaling.{json,txt}``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Dict, List

import pytest

from repro.bench.feeds import LatencyFeedSource
from repro.engines.flux_engine import FluxEngine
from repro.errors import XMLSyntaxError
from repro.service import QueryService, ServicePool
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload
from repro.workloads.xmark import generate_auction_site

from conftest import RESULTS_DIR, write_report

#: Documents per stream (sizes vary like real traffic, see the fixtures).
STREAM_DOCUMENTS = 12

#: Chunks per document feed and delivery latency per chunk: 10 × 15 ms =
#: 150 ms of transport per document, a modest LAN-upload profile that is
#: 2–8× the fleets' per-document evaluation cost.
FEED_CHUNKS = 10
CHUNK_LATENCY_SECONDS = 0.015

#: Pool sizes for the scaling curve.
WORKER_COUNTS = [1, 2, 4, 8]

_REPORT: Dict[str, dict] = {}


def _stream(documents, feeds: bool):
    """The served stream: latency-feed recipes, or the in-memory texts."""
    if not feeds:
        return list(documents)
    return [
        LatencyFeedSource(doc, FEED_CHUNKS, CHUNK_LATENCY_SECONDS)
        for doc in documents
    ]


def _workload(name: str):
    if name == "bib":
        dtd = BIB_DTD_STRONG
        documents = [
            generate_bibliography(num_books=books, seed=2004 + i)
            for i, books in enumerate([60, 120, 90, 150, 75, 105] * 2)
        ][:STREAM_DOCUMENTS]
    else:  # xmark
        dtd = AUCTION_DTD
        documents = [
            generate_auction_site(scale=scale, seed=2004 + i)
            for i, scale in enumerate([0.3, 0.5, 0.4, 0.6, 0.35, 0.45] * 2)
        ][:STREAM_DOCUMENTS]
    specs = queries_for_workload("bib" if name == "bib" else "auction")
    return dtd, specs, documents


def _solo_outputs(dtd, specs, documents) -> List[Dict[str, str]]:
    engine = FluxEngine(dtd)
    return [
        {spec.key: engine.execute(spec.xquery, document).output for spec in specs}
        for document in documents
    ]


def _check_outputs(served, solo) -> None:
    for outcome in served:
        assert outcome.ok, outcome.error
        produced = {key: result.output for key, result in outcome.results.items()}
        assert produced == solo[outcome.index]


def _run_single_loop(dtd, specs, documents, feeds: bool) -> dict:
    service = QueryService(dtd)
    for spec in specs:
        service.register(spec.xquery, key=spec.key)
    stream = _stream(documents, feeds)
    started = time.perf_counter()
    served = list(service.serve(stream))
    elapsed = time.perf_counter() - started
    return {"elapsed_seconds": elapsed, "served": served,
            "docs_per_second": len(documents) / elapsed}


def _run_pool(dtd, specs, documents, workers: int, feeds: bool) -> dict:
    pool = ServicePool(dtd, workers=workers)
    # Register the fleet *concurrently from every worker's mirror* — the
    # thundering-herd case the single-flight cache exists for: all workers
    # hit each query's key at the same instant (one barrier per query), so
    # one mirror leads the compilation and the others coalesce onto its
    # flight.  Exactly one compilation per distinct query must be paid
    # across the pool.
    barrier = threading.Barrier(workers)

    def register_mirror(service: QueryService) -> None:
        for spec in specs:
            if workers > 1:
                barrier.wait()
            service.register(spec.xquery, key=spec.key)

    threads = [
        threading.Thread(target=register_mirror, args=(service,))
        for service in pool.services
    ]
    # A single optimizer run often fits inside one GIL scheduling slice
    # (5 ms), which would let the leader finish before any follower even
    # looks up the key; shrink the slice so the herd genuinely overlaps.
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(switch_interval)
    stats = pool.plan_cache.stats
    assert stats.misses == len(specs), (
        f"expected one compilation per distinct query, got {stats.misses}"
    )
    assert stats.coalesced + stats.hits == (workers - 1) * len(specs)

    stream = _stream(documents, feeds)
    started = time.perf_counter()
    served = list(pool.serve(stream))
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "served": served,
        "docs_per_second": len(documents) / elapsed,
        "plan_cache": pool.plan_cache.stats.as_dict(),
    }


def _fault_isolation(dtd, specs, documents, solo) -> dict:
    """Inject a mid-document parse error into a 4-worker pool's stream."""
    bad_index = len(documents) // 2
    stream = list(documents)
    # A real document that goes bad halfway through: the pass has already
    # parsed and routed thousands of events when the parser fails.
    stream[bad_index] = stream[bad_index][: len(stream[bad_index]) // 2] + "<<<"
    pool = ServicePool(dtd, workers=4)
    for spec in specs:
        pool.register(spec.xquery, key=spec.key)
    served = list(pool.serve(_stream(stream, feeds=True)))
    assert sorted(outcome.index for outcome in served) == list(range(len(stream)))
    failures = [outcome for outcome in served if not outcome.ok]
    assert len(failures) == 1 and failures[0].index == bad_index
    assert isinstance(failures[0].error, XMLSyntaxError)
    assert failures[0].results == {}
    for outcome in served:
        if outcome.index == bad_index:
            continue
        produced = {key: result.output for key, result in outcome.results.items()}
        assert produced == solo[outcome.index], (
            "fault isolation broke byte-identity for document %d" % outcome.index
        )
    metrics = pool.metrics
    assert metrics.documents_failed == 1
    assert metrics.documents_ok == len(stream) - 1
    return {
        "bad_index": bad_index,
        "error": type(failures[0].error).__name__,
        "failed_worker": failures[0].worker,
        "documents_ok": metrics.documents_ok,
        "documents_failed": metrics.documents_failed,
        "others_byte_identical": True,
    }


def _run_workload(name: str, benchmark=None) -> dict:
    dtd, specs, documents = _workload(name)
    solo = _solo_outputs(dtd, specs, documents)

    single = _run_single_loop(dtd, specs, documents, feeds=True)
    _check_outputs(single["served"], solo)

    scaling = {}
    for workers in WORKER_COUNTS:
        if benchmark is not None and workers == 4:
            holder = {}

            def target():
                holder["run"] = _run_pool(dtd, specs, documents, 4, feeds=True)
                return holder["run"]

            benchmark.pedantic(target, rounds=1, iterations=1)
            run = holder["run"]
        else:
            run = _run_pool(dtd, specs, documents, workers, feeds=True)
        _check_outputs(run["served"], solo)
        scaling[workers] = run

    # The CPU-bound footnote: same stream, no delivery latency.
    cpu_single = _run_single_loop(dtd, specs, documents, feeds=False)
    _check_outputs(cpu_single["served"], solo)
    cpu_pool4 = _run_pool(dtd, specs, documents, 4, feeds=False)
    _check_outputs(cpu_pool4["served"], solo)

    speedup_4 = scaling[4]["docs_per_second"] / single["docs_per_second"]
    entry = {
        "documents": len(documents),
        "queries": len(specs),
        "document_bytes_total": sum(len(doc) for doc in documents),
        "feed": {
            "chunks_per_document": FEED_CHUNKS,
            "chunk_latency_seconds": CHUNK_LATENCY_SECONDS,
            "delivery_seconds_per_document": FEED_CHUNKS * CHUNK_LATENCY_SECONDS,
        },
        "single_loop": {
            "elapsed_seconds": single["elapsed_seconds"],
            "docs_per_second": single["docs_per_second"],
        },
        "pool_scaling": {
            str(workers): {
                "elapsed_seconds": run["elapsed_seconds"],
                "docs_per_second": run["docs_per_second"],
                "speedup_vs_single": run["docs_per_second"] / single["docs_per_second"],
                "plan_cache": run["plan_cache"],
            }
            for workers, run in scaling.items()
        },
        "cpu_bound": {
            "single_docs_per_second": cpu_single["docs_per_second"],
            "pool4_docs_per_second": cpu_pool4["docs_per_second"],
            "pool4_speedup_vs_single": (
                cpu_pool4["docs_per_second"] / cpu_single["docs_per_second"]
            ),
        },
        "fault_isolation": _fault_isolation(dtd, specs, documents, solo),
    }

    # The acceptance bar: 4 workers at least double the single loop's
    # throughput on the serving (feed) workload.
    assert speedup_4 >= 2.0, (
        f"{name}: pool(4) speedup {speedup_4:.2f}x < 2x acceptance bar"
    )
    return entry


def test_s4_pool_scaling_bib(benchmark):
    _REPORT["bib"] = _run_workload("bib", benchmark=benchmark)


def test_s4_pool_scaling_xmark(benchmark):
    _REPORT["xmark"] = _run_workload("xmark", benchmark=benchmark)


@pytest.fixture(scope="module", autouse=True)
def report_s4():
    yield
    if not _REPORT:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "s4_pool_scaling.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
    lines = [
        "S4: fault-isolated service pool — documents/second sharding a stream"
        " of chunked feeds (15 ms/chunk delivery latency) across 1-8 workers"
        " sharing one plan cache, vs a single QueryService.serve() loop",
        "",
    ]
    for workload in sorted(_REPORT):
        entry = _REPORT[workload]
        feed = entry["feed"]
        lines.append(
            f"{workload}: {entry['documents']} documents x {entry['queries']}"
            f" queries ({entry['document_bytes_total']} bytes total,"
            f" {feed['delivery_seconds_per_document'] * 1000:.0f} ms delivery"
            f" per document)"
        )
        lines.append(
            f"{'mode':<14}{'elapsed s':>11}{'docs/s':>9}{'speedup':>9}"
            f"{'misses':>8}{'coalesced':>11}"
        )
        single = entry["single_loop"]
        lines.append(
            f"{'serve(1 svc)':<14}{single['elapsed_seconds']:>11.2f}"
            f"{single['docs_per_second']:>9.2f}{'1.00x':>9}{'-':>8}{'-':>11}"
        )
        for workers in WORKER_COUNTS:
            run = entry["pool_scaling"][str(workers)]
            cache = run["plan_cache"]
            lines.append(
                f"{'pool(' + str(workers) + ')':<14}"
                f"{run['elapsed_seconds']:>11.2f}"
                f"{run['docs_per_second']:>9.2f}"
                f"{run['speedup_vs_single']:>8.2f}x"
                f"{cache['misses']:>8}{cache['coalesced']:>11}"
            )
        cpu = entry["cpu_bound"]
        lines.append(
            f"cpu-bound (no delivery latency): pool(4) is"
            f" {cpu['pool4_speedup_vs_single']:.2f}x the single loop — the"
            f" GIL serializes evaluation; the pool buys ingestion overlap,"
            f" not CPU parallelism"
        )
        fault = entry["fault_isolation"]
        lines.append(
            f"fault isolation: document {fault['bad_index']} injected broken ->"
            f" 1 error-tagged ServedDocument ({fault['error']} on worker"
            f" {fault['failed_worker']}), {fault['documents_ok']} others served"
            f" byte-identical to solo runs"
        )
        lines.append("")
    content = write_report("s4_pool_scaling.txt", "\n".join(lines))
    print("\n" + content)
