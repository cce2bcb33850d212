"""Experiment S5 — multi-process pool: plan shipping vs the GIL cap.

S4 ended on an honest footnote: the thread pool's workers interleave under
CPython's GIL, so on *CPU-bound* streams (documents already in memory,
nothing to overlap) the pool measured ~1× a single serve loop no matter
how many workers it had.  :class:`~repro.service.ProcessServicePool` is
the architectural answer — worker processes, compiled plans shipped from
the parent's cache — and this experiment measures what it buys, and what
it costs, in both regimes:

* **CPU-bound regime** (the reason the process pool exists): the same
  in-memory document streams S4 used, served by a single loop, by the
  thread pool at 4 workers (the reproduced ~1× footnote), and by the
  process pool at 1→8 workers.  Plan shipping is verified exactly: one
  parent compilation per distinct query (``misses``), ``workers ×
  queries`` artifacts shipped (``ship_count``), zero optimizer runs
  reported by any worker.  **Hardware note**: process parallelism cannot
  exceed the machine — the acceptance bar (pool(4) ≥ 2× the single loop)
  is enforced whenever ≥2 CPU cores are usable, scaled to
  ``min(cores, 4) / 2``; on a single-core container the run still
  verifies shipping, byte-identity, and bounded IPC overhead (≥ 0.45×),
  and records the constraint in the committed results instead of
  pretending a number the hardware cannot produce.
* **latency-bound regime** (the thread pool's home turf): chunked feeds
  with 15 ms/chunk delivery latency.  Every face is handed the same
  :class:`~repro.bench.feeds.LatencyFeedSource` recipes, so whichever
  *worker* serves a document pays its delivery, keeping it overlapped.  The bar here — pool(4) ≥ 2×
  the single loop — holds on any hardware (sleeping needs no cores) and
  is always enforced, for both backends.
* **crash isolation** (beyond S4): a worker process killed mid-document
  (injected with a ``CrashingFeedSource``) must surface as one error-tagged
  ``ServedDocument`` carrying ``WorkerCrashError``, respawn the slot, and
  leave every other document byte-identical to solo runs.

Results land in ``benchmarks/results/s5_process_pool.{json,txt}``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import pytest

from repro.bench.feeds import CrashingFeedSource, LatencyFeedSource
from repro.engines.flux_engine import FluxEngine
from repro.errors import WorkerCrashError
from repro.service import ProcessServicePool, QueryService, ServicePool
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload
from repro.workloads.xmark import generate_auction_site

from conftest import RESULTS_DIR, write_report

#: Documents per stream (sizes vary like real traffic; same as S4).
STREAM_DOCUMENTS = 12

#: Chunks per document feed and delivery latency per chunk (same as S4):
#: 10 × 15 ms = 150 ms of transport per document.
FEED_CHUNKS = 10
CHUNK_LATENCY_SECONDS = 0.015

#: Pool sizes for the CPU-bound scaling curve.
WORKER_COUNTS = [1, 2, 4, 8]

#: CPU cores this container may actually use — the ceiling on process
#: parallelism, and therefore on what the CPU-bound bar may honestly demand.
try:
    USABLE_CORES = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux
    USABLE_CORES = os.cpu_count() or 1

_REPORT: Dict[str, dict] = {}


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


def _timed_serve(pool_or_service, stream) -> dict:
    started = time.perf_counter()
    served = list(pool_or_service.serve(stream))
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "served": served,
        "docs_per_second": len(served) / elapsed,
    }


def _stream(documents, feeds: bool):
    """The served stream — the same for every face: latency-feed recipes
    (materialized, and their delivery paid, by whichever worker serves
    them), or the in-memory texts."""
    if not feeds:
        return list(documents)
    return [
        LatencyFeedSource(doc, FEED_CHUNKS, CHUNK_LATENCY_SECONDS)
        for doc in documents
    ]


def _run_single_loop(dtd, specs, documents, feeds: bool) -> dict:
    service = QueryService(dtd)
    for spec in specs:
        service.register(spec.xquery, key=spec.key)
    return _timed_serve(service, _stream(documents, feeds))


def _run_thread_pool(dtd, specs, documents, workers: int, feeds: bool) -> dict:
    pool = ServicePool(dtd, workers=workers)
    for spec in specs:
        pool.register(spec.xquery, key=spec.key)
    return _timed_serve(pool, _stream(documents, feeds))


def _run_process_pool(dtd, specs, documents, workers: int, feeds: bool) -> dict:
    """One process-pool run, with plan shipping verified exactly.

    The fleet is spawned and warmed before the clock starts (one tiny
    warm-up document): the pool is a long-lived server, so steady-state
    throughput — not Python interpreter start-up — is the measured
    quantity; S4's thread pool numbers likewise exclude pool construction.
    """
    with ProcessServicePool(dtd, workers=workers) as pool:
        for spec in specs:
            pool.register(spec.xquery, key=spec.key)
        # Spawn + ship + first-pass warm-up, outside the measured region.
        warmup = list(pool.serve([documents[0]]))
        assert all(outcome.ok for outcome in warmup)

        # Compile-once, verified on both sides of the process boundary:
        # the parent paid one optimizer run per distinct query and shipped
        # workers × queries artifacts; no worker compiled anything.
        stats = pool.plan_cache.stats
        assert stats.misses == len(specs), (
            f"expected one parent compilation per query, got {stats.misses}"
        )
        metrics = pool.metrics
        assert metrics.ship_count == workers * len(specs), (
            f"expected {workers * len(specs)} shipped artifacts, "
            f"got {metrics.ship_count}"
        )
        assert all(
            count == 0 for count in pool.worker_compilations().values()
        ), "a worker process ran the optimizer: plan shipping is broken"

        run = _timed_serve(pool, _stream(documents, feeds))
        run["ship_count"] = metrics.ship_count
        run["ship_bytes"] = metrics.ship_bytes
        run["parent_compilations"] = stats.misses
        run["worker_compilations"] = sum(pool.worker_compilations().values())
        return run


def _crash_isolation(dtd, specs, documents, solo) -> dict:
    """Kill a worker process mid-document; the stream must keep serving."""
    bad_index = len(documents) // 2
    stream = list(documents)
    stream[bad_index] = CrashingFeedSource(stream[bad_index])
    with ProcessServicePool(dtd, workers=4) as pool:
        for spec in specs:
            pool.register(spec.xquery, key=spec.key)
        served = list(pool.serve(stream))
        assert sorted(o.index for o in served) == list(range(len(stream)))
        failures = [o for o in served if not o.ok]
        assert len(failures) == 1 and failures[0].index == bad_index
        assert isinstance(failures[0].error, WorkerCrashError)
        assert failures[0].results == {}
        assert pool.worker_respawns == 1
        for outcome in served:
            if outcome.index == bad_index:
                continue
            produced = {
                key: result.output for key, result in outcome.results.items()
            }
            assert produced == solo[outcome.index], (
                "crash isolation broke byte-identity for document %d"
                % outcome.index
            )
        metrics = pool.metrics
        assert metrics.documents_failed == 1
        assert metrics.documents_ok == len(stream) - 1
        return {
            "bad_index": bad_index,
            "error": type(failures[0].error).__name__,
            "exitcode": failures[0].error.exitcode,
            "failed_worker": failures[0].worker,
            "worker_respawns": pool.worker_respawns,
            "documents_ok": metrics.documents_ok,
            "documents_failed": metrics.documents_failed,
            "others_byte_identical": True,
        }


def _run_workload(name: str, benchmark=None) -> dict:
    dtd, specs, documents = _workload(name)
    solo = _solo_outputs(dtd, specs, documents)

    # ---- CPU-bound regime: in-memory strings, nothing to overlap.
    cpu_single = _run_single_loop(dtd, specs, documents, feeds=False)
    _check_outputs(cpu_single["served"], solo)
    cpu_threads4 = _run_thread_pool(dtd, specs, documents, 4, feeds=False)
    _check_outputs(cpu_threads4["served"], solo)

    cpu_scaling = {}
    for workers in WORKER_COUNTS:
        if benchmark is not None and workers == 4:
            holder = {}

            def target():
                holder["run"] = _run_process_pool(
                    dtd, specs, documents, 4, feeds=False
                )
                return holder["run"]

            benchmark.pedantic(target, rounds=1, iterations=1)
            run = holder["run"]
        else:
            run = _run_process_pool(dtd, specs, documents, workers, feeds=False)
        _check_outputs(run["served"], solo)
        cpu_scaling[workers] = run

    # ---- Latency-bound regime: 150 ms delivery per document.
    lat_single = _run_single_loop(dtd, specs, documents, feeds=True)
    _check_outputs(lat_single["served"], solo)
    lat_threads4 = _run_thread_pool(dtd, specs, documents, 4, feeds=True)
    _check_outputs(lat_threads4["served"], solo)
    lat_processes4 = _run_process_pool(dtd, specs, documents, 4, feeds=True)
    _check_outputs(lat_processes4["served"], solo)

    cpu_speedup_4 = (
        cpu_scaling[4]["docs_per_second"] / cpu_single["docs_per_second"]
    )
    lat_speedup_4 = (
        lat_processes4["docs_per_second"] / lat_single["docs_per_second"]
    )

    # The CPU-bound bar scales with what the hardware can express: 2× at
    # ≥4 usable cores, cores/2 at 2-3, and on a single core only the
    # IPC-overhead sanity bound (the regime the footnote documents).
    if USABLE_CORES >= 2:
        cpu_bar = min(USABLE_CORES, 4) / 2.0
        assert cpu_speedup_4 >= cpu_bar, (
            f"{name}: process pool(4) CPU-bound speedup {cpu_speedup_4:.2f}x "
            f"< {cpu_bar:.1f}x bar on {USABLE_CORES} cores"
        )
        cpu_bar_note = f"enforced >= {cpu_bar:.1f}x on {USABLE_CORES} cores"
    else:
        assert cpu_speedup_4 >= 0.45, (
            f"{name}: process pool(4) lost {cpu_speedup_4:.2f}x to IPC on one "
            "core — overhead out of bounds"
        )
        cpu_bar_note = (
            "single usable core: hardware cannot express process "
            "parallelism; bar >= 0.45x (IPC overhead bound) enforced, "
            "2x bar armed for >= 2 cores"
        )

    # The latency bar holds on any hardware and is always enforced.
    assert lat_speedup_4 >= 2.0, (
        f"{name}: process pool(4) latency-bound speedup {lat_speedup_4:.2f}x "
        "< 2x bar"
    )

    def _summary(run, baseline) -> dict:
        entry = {
            "elapsed_seconds": run["elapsed_seconds"],
            "docs_per_second": run["docs_per_second"],
            "speedup_vs_single": run["docs_per_second"] / baseline["docs_per_second"],
        }
        for key in ("ship_count", "ship_bytes", "parent_compilations",
                    "worker_compilations"):
            if key in run:
                entry[key] = run[key]
        return entry

    return {
        "documents": len(documents),
        "queries": len(specs),
        "document_bytes_total": sum(len(doc) for doc in documents),
        "usable_cores": USABLE_CORES,
        "cpu_bound": {
            "single_loop": _summary(cpu_single, cpu_single),
            "thread_pool_4": _summary(cpu_threads4, cpu_single),
            "process_pool": {
                str(workers): _summary(run, cpu_single)
                for workers, run in cpu_scaling.items()
            },
            "bar": cpu_bar_note,
        },
        "latency_bound": {
            "feed": {
                "chunks_per_document": FEED_CHUNKS,
                "chunk_latency_seconds": CHUNK_LATENCY_SECONDS,
                "delivery_seconds_per_document": FEED_CHUNKS * CHUNK_LATENCY_SECONDS,
            },
            "single_loop": _summary(lat_single, lat_single),
            "thread_pool_4": _summary(lat_threads4, lat_single),
            "process_pool_4": _summary(lat_processes4, lat_single),
            "bar": "enforced >= 2x (delivery overlap needs no extra cores)",
        },
        "crash_isolation": _crash_isolation(dtd, specs, documents, solo),
    }


def test_s5_process_pool_bib(benchmark):
    _REPORT["bib"] = _run_workload("bib", benchmark=benchmark)


def test_s5_process_pool_xmark(benchmark):
    _REPORT["xmark"] = _run_workload("xmark", benchmark=benchmark)


@pytest.fixture(scope="module", autouse=True)
def report_s5():
    yield
    if not _REPORT:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "s5_process_pool.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
    lines = [
        "S5: multi-process service pool — plan shipping vs the GIL cap.",
        "Single QueryService.serve() loop vs thread pool vs process pool"
        " (plans compiled once in the parent, shipped pickled to workers),"
        " on CPU-bound streams (in-memory documents) and latency-bound"
        " streams (chunked feeds, 15 ms/chunk).",
        "",
    ]
    for workload in sorted(_REPORT):
        entry = _REPORT[workload]
        lines.append(
            f"{workload}: {entry['documents']} documents x {entry['queries']}"
            f" queries ({entry['document_bytes_total']} bytes total),"
            f" {entry['usable_cores']} usable core(s)"
        )
        cpu = entry["cpu_bound"]
        lines.append("  CPU-bound (in-memory documents):")
        lines.append(
            f"  {'mode':<16}{'elapsed s':>11}{'docs/s':>9}{'speedup':>9}"
            f"{'shipped':>9}{'compiled':>20}"
        )
        rows = [
            ("serve(1 svc)", cpu["single_loop"], False),
            ("threads(4)", cpu["thread_pool_4"], False),
        ] + [
            (f"processes({workers})", cpu["process_pool"][str(workers)], True)
            for workers in WORKER_COUNTS
        ]
        for label, run, shipped in rows:
            ship = str(run.get("ship_count", "-"))
            compiled = (
                f"{run['parent_compilations']} parent / "
                f"{run['worker_compilations']} worker"
                if shipped
                else "-"
            )
            lines.append(
                f"  {label:<16}{run['elapsed_seconds']:>11.2f}"
                f"{run['docs_per_second']:>9.2f}"
                f"{run['speedup_vs_single']:>8.2f}x"
                f"{ship:>9}{compiled:>20}"
            )
        lines.append(f"  bar: {cpu['bar']}")
        lat = entry["latency_bound"]
        delivery_ms = lat["feed"]["delivery_seconds_per_document"] * 1000
        lines.append(
            f"  latency-bound (chunked feeds, {delivery_ms:.0f} ms delivery"
            " per document):"
        )
        for label, run in [
            ("serve(1 svc)", lat["single_loop"]),
            ("threads(4)", lat["thread_pool_4"]),
            ("processes(4)", lat["process_pool_4"]),
        ]:
            lines.append(
                f"  {label:<16}{run['elapsed_seconds']:>11.2f}"
                f"{run['docs_per_second']:>9.2f}"
                f"{run['speedup_vs_single']:>8.2f}x"
            )
        lines.append(f"  bar: {lat['bar']}")
        crash = entry["crash_isolation"]
        lines.append(
            f"  crash isolation: worker {crash['failed_worker']} killed"
            f" (exit {crash['exitcode']}) mid-document {crash['bad_index']} ->"
            f" 1 {crash['error']} outcome, slot respawned"
            f" ({crash['worker_respawns']}), {crash['documents_ok']} other"
            " documents byte-identical to solo runs"
        )
        lines.append("")
    content = write_report("s5_process_pool.txt", "\n".join(lines))
    print("\n" + content)
