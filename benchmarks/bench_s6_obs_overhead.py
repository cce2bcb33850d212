"""Experiment S6 — observability overhead: what watching the service costs.

Every pass runs the same dispatch loop and always takes its stage
seconds (a clock pair per parser call and per routed chunk, on the pass's
``PassMetrics``); an attached ``repro.obs`` hub only decides where those
numbers — and the pass counters, spans and log events — are published,
with a check per *pass*, never per event.  This experiment prices the
publishing tiers in events/second on the same serve loops the S-series
measures:

* **baseline** — ``obs=None``, the default;
* **disabled** — an :class:`~repro.obs.Observability` hub attached but
  with every component off (each hook fires, finds nothing to do) — the
  same per-event code as baseline, so the 3% bar on this row is held at
  A/A precision (the always-on clock itself is priced against the parent
  commit by ``benchmarks/layered``, not here);
* **metrics** — a live :class:`~repro.obs.MetricsRegistry` (pass
  counters, per-stage latency histograms);
* **metrics+tracing** — metrics plus a :class:`~repro.obs.Tracer`
  recording pass/stage spans (buffered in a
  :class:`~repro.obs.MemorySink`; file serialization is the CLI's
  concern, span construction is the layer's).

Each tier runs on the bib and XMark workloads, for the inline
``QueryService`` and the ``ProcessServicePool`` backends.  Measuring a
3% bar honestly took three methodology decisions, each forced by a
control experiment on a shared single-core host:

1. **CPU seconds, not wall clock.**  An A/A control (two identical
   uninstrumented services) measured 3% apart in wall time with ±25%
   round swings — neighbours steal the core.  Each timed run records
   ``time.process_time()`` of the driving process plus, for the process
   pool, the workers' utime+stime deltas from ``/proc/<pid>/stat``.
2. **One instance, attachments swapped (inline).**  Two separately
   constructed but identical services differ by up to ±17% in CPU time
   — allocator/layout luck is instance-constant, so no amount of
   averaging removes it.  ``QueryService`` reads ``self.obs`` at
   ``open_pass()`` time, so the inline comparison uses *one* service
   and swaps the hub between timed runs: instance bias cancels exactly,
   and the 3% bar is enforced here.
3. **A measured noise floor (processes).**  Pool workers are spawned
   with their instrumentation, so tiers need separate pool instances
   and inherit their instance bias.  A fifth A/A **control** pool
   (``obs=None``, identical to baseline) is measured in the same
   interleaved rounds; its apparent overhead is pure noise, printed as
   the session's noise floor, and the disabled-tier gate widens by a
   robust estimate of that floor.  The worker-side disabled path is the
   same per-pass hook code the inline gate already holds to 3%.

Every measurement is an **adjacent pair**: a baseline serve and a tier
serve timed back-to-back (inner order alternating), because host noise
bursts live at second scale — a rotated round-robin that separates the
two by a few serves already reads ±4% where adjacent pairing reads
±1%.  Overhead is the median across rounds of the per-pair CPU ratio;
negatives (timer noise) are kept honest rather than clamped.
Throughput is reported as best-of-rounds events/second, events counted
from the server's own ``parser_events_total``.

Results land in ``benchmarks/results/s6_obs_overhead.{json,txt}``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from typing import Dict, List, Optional

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.obs import MemorySink, MetricsRegistry, Observability, Tracer
from repro.service import ProcessServicePool, QueryService
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload
from repro.workloads.xmark import generate_auction_site

from conftest import RESULTS_DIR, write_report

#: Documents per measured serve (sizes vary like real traffic).
STREAM_DOCUMENTS = 8

#: Timed rounds per backend; every round measures each tier as one
#: adjacent (baseline, tier) pair, and per-tier medians of the pair
#: ratios are taken across rounds.
INLINE_ROUNDS = 12
POOL_ROUNDS = 10

#: Process-pool width.  Fleet spawn/ship/warm-up stays outside the
#: measured region (the pool is a long-lived server; S5 measures the
#: same way), so the fork start method only shortens the bench itself.
WORKERS = 2

#: Acceptance bar: disabled-path overhead budget, percent vs baseline.
DISABLED_BUDGET_PCT = 3.0

#: Instrumentation tiers, in the order they appear in the report.
MODES = ["baseline", "disabled", "metrics", "metrics+tracing"]

_REPORT: Dict[str, dict] = {}

try:
    _CLK_TCK = float(os.sysconf("SC_CLK_TCK"))
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _CLK_TCK = 100.0


def _workload(name: str):
    if name == "bib":
        dtd = BIB_DTD_STRONG
        documents = [
            generate_bibliography(num_books=books, seed=2006 + i)
            for i, books in enumerate([80, 120, 100, 140] * 2)
        ][:STREAM_DOCUMENTS]
    else:  # xmark
        dtd = AUCTION_DTD
        documents = [
            generate_auction_site(scale=scale, seed=2006 + i)
            for i, scale in enumerate([0.3, 0.4, 0.35, 0.45] * 2)
        ][:STREAM_DOCUMENTS]
    specs = queries_for_workload("bib" if name == "bib" else "auction")
    return dtd, specs, documents


def _solo_outputs(dtd, specs, documents) -> List[Dict[str, str]]:
    engine = FluxEngine(dtd)
    return [
        {spec.key: engine.execute(spec.xquery, document).output for spec in specs}
        for document in documents
    ]


def _make_obs(mode: str) -> Optional[Observability]:
    if mode == "baseline":
        return None
    if mode == "disabled":
        return Observability()
    if mode == "metrics":
        return Observability(metrics=MetricsRegistry())
    return Observability(metrics=MetricsRegistry(), tracer=Tracer(MemorySink()))


def _cpu_seconds(server) -> float:
    """CPU seconds charged to this workload: driver plus worker processes.

    Worker CPU comes from ``/proc/<pid>/stat`` (fields 14/15, utime+stime
    in clock ticks); unreadable entries are skipped, which degrades the
    pool comparison to driver-side CPU only on non-Linux hosts.
    """
    total = time.process_time()
    pids = getattr(server, "worker_pids", dict)()
    for pid in pids.values():
        if pid is None:
            continue
        try:
            with open("/proc/%d/stat" % pid, "rb") as handle:
                fields = handle.read().rsplit(b") ", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
        except (OSError, IndexError, ValueError):  # pragma: no cover
            pass
    return total


def _timed_serve(server, documents, solo, check_outputs: bool) -> dict:
    """One timed serve of the full stream; returns elapsed/CPU/events."""
    gc.collect()  # a collection landing inside one tier's window is bias
    events_before = server.metrics.parser_events_total
    cpu_before = _cpu_seconds(server)
    started = time.perf_counter()
    served = list(server.serve(documents))
    elapsed = time.perf_counter() - started
    cpu = _cpu_seconds(server) - cpu_before

    for outcome in served:
        assert outcome.ok, outcome.error
        if check_outputs:
            produced = {
                key: result.output for key, result in outcome.results.items()
            }
            assert produced == solo[outcome.index], (
                "instrumentation changed query output for document %d"
                % outcome.index
            )
    events = server.metrics.parser_events_total - events_before
    return {
        "elapsed_seconds": elapsed,
        "cpu_seconds": cpu,
        "events": events,
        "events_per_second": events / elapsed,
    }


def _drain_tracer(obs: Optional[Observability]) -> int:
    if obs is not None and obs.tracer is not None:
        return len(obs.tracer.sink.drain())
    return 0


def _assert_tier_live(mode: str, obs: Optional[Observability],
                      spans_recorded: int, passes_expected: int) -> None:
    """A silently-dead hook must not pose as a fast one."""
    if obs is not None and obs.tracer is not None:
        assert spans_recorded > 0, f"{mode}: tracing tier recorded no spans"
    if obs is not None and obs.metrics is not None:
        snap = obs.metrics.snapshot()
        passes = snap["repro_pass_duration_seconds"]["values"][0]["count"]
        assert passes >= passes_expected, (
            f"{mode}: metrics tier counted no passes: registry is not wired"
        )


def _paired_rounds(serve_tier, tier_modes: List[str], rounds: int):
    """Measure each tier as adjacent (baseline, tier) pairs, per round.

    ``serve_tier(mode)`` runs one timed serve for ``mode``.  The inner
    order of each pair alternates so neither side systematically goes
    first.  Returns ``(runs_by_mode, pair_ratios)`` where
    ``pair_ratios[mode]`` holds one CPU ratio per round.
    """
    runs_by_mode: Dict[str, List[dict]] = {
        mode: [] for mode in ["baseline"] + tier_modes
    }
    pair_ratios: Dict[str, List[float]] = {mode: [] for mode in tier_modes}
    for round_no in range(rounds):
        start = round_no % len(tier_modes)
        for index, mode in enumerate(tier_modes[start:] + tier_modes[:start]):
            if (round_no + index) % 2 == 0:
                base_run = serve_tier("baseline")
                tier_run = serve_tier(mode)
            else:
                tier_run = serve_tier(mode)
                base_run = serve_tier("baseline")
            runs_by_mode["baseline"].append(base_run)
            runs_by_mode[mode].append(tier_run)
            pair_ratios[mode].append(
                tier_run["cpu_seconds"] / base_run["cpu_seconds"]
            )
    return runs_by_mode, pair_ratios


def _summarize(runs_by_mode: Dict[str, List[dict]],
               pair_ratios: Dict[str, List[float]]) -> dict:
    tiers = {}
    for mode, runs in runs_by_mode.items():
        ratios = pair_ratios.get(mode, [])
        best = max(runs, key=lambda run: run["events_per_second"])
        tiers[mode] = {
            "rounds": len(runs),
            "events_per_run": best["events"],
            "best_elapsed_seconds": best["elapsed_seconds"],
            "events_per_second": best["events_per_second"],
            "median_cpu_seconds": statistics.median(
                run["cpu_seconds"] for run in runs
            ),
            "overhead_pct": (
                (statistics.median(ratios) - 1.0) * 100.0 if ratios else 0.0
            ),
            "cpu_ratios": [round(ratio, 4) for ratio in ratios],
        }
    return tiers


def _run_inline(name: str, dtd, specs, documents, solo) -> dict:
    """All tiers on ONE service instance, hub swapped per timed run."""
    service = QueryService(dtd)
    for spec in specs:
        service.register(spec.xquery, key=spec.key)
    hubs = {mode: _make_obs(mode) for mode in MODES}
    # Warm-up: steady state is the measured quantity.
    for _ in range(2):
        assert all(o.ok for o in service.serve(documents))

    spans_recorded = {mode: 0 for mode in MODES}
    checked = {"done": False}

    def serve_tier(mode: str) -> dict:
        service.obs = hubs[mode]
        run = _timed_serve(service, documents, solo, not checked["done"])
        checked["done"] = True
        spans_recorded[mode] += _drain_tracer(hubs[mode])
        service.obs = None
        return run

    runs_by_mode, pair_ratios = _paired_rounds(
        serve_tier, MODES[1:], INLINE_ROUNDS
    )

    for mode in MODES[1:]:
        _assert_tier_live(f"{name}/{mode}", hubs[mode], spans_recorded[mode],
                          INLINE_ROUNDS * len(documents))
    tiers = _summarize(runs_by_mode, pair_ratios)
    disabled = tiers["disabled"]["overhead_pct"]
    assert disabled <= DISABLED_BUDGET_PCT, (
        f"{name}: disabled observability path costs {disabled:.2f}% CPU "
        f"(budget {DISABLED_BUDGET_PCT}%) — a hook leaked into the hot path"
    )
    tiers["method"] = (
        "one service instance, obs hub swapped per run; bar enforced at "
        f"{DISABLED_BUDGET_PCT}% on the median adjacent-pair CPU ratio"
    )
    return tiers


def _run_processes(name: str, dtd, specs, documents, solo) -> dict:
    """One pool per tier plus an A/A control pool measuring the noise.

    Worker instrumentation is fixed at spawn, so tiers cannot share a
    pool instance; the control pool (identical to baseline) prices the
    instance bias + residual noise the gate must tolerate.
    """
    tier_modes = MODES[1:] + ["control"]
    pools: Dict[str, ProcessServicePool] = {}
    hubs: Dict[str, Optional[Observability]] = {}
    spans_recorded = {mode: 0 for mode in tier_modes}
    checked = {"done": False}
    try:
        for mode in ["baseline"] + tier_modes:
            hubs[mode] = _make_obs("baseline" if mode == "control" else mode)
            pool = ProcessServicePool(
                dtd, workers=WORKERS, start_method="fork", obs=hubs[mode]
            )
            for spec in specs:
                pool.register(spec.xquery, key=spec.key)
            assert all(o.ok for o in pool.serve(documents))  # warm the fleet
            pools[mode] = pool

        def serve_tier(mode: str) -> dict:
            run = _timed_serve(pools[mode], documents, solo, not checked["done"])
            checked["done"] = True
            if mode in spans_recorded:
                spans_recorded[mode] += _drain_tracer(hubs[mode])
            return run

        runs_by_mode, pair_ratios = _paired_rounds(
            serve_tier, tier_modes, POOL_ROUNDS
        )
    finally:
        for pool in pools.values():
            pool.close()

    for mode in MODES[1:]:
        _assert_tier_live(f"{name}/{mode}", hubs[mode], spans_recorded[mode],
                          POOL_ROUNDS * len(documents))
    tiers = _summarize(runs_by_mode, pair_ratios)

    # Noise floor: the control pool is byte-for-byte the baseline, so its
    # measured "overhead" and the spread of its per-round ratios are pure
    # measurement noise.  The gate widens by twice the robust standard
    # error of the median — on a quiet host this collapses toward the
    # bare budget.
    control_ratios = tiers["control"]["cpu_ratios"]
    mad = statistics.median(
        abs(ratio - statistics.median(control_ratios)) for ratio in control_ratios
    )
    noise_floor_pct = (
        2.0 * 1.25 * 1.4826 * mad / (len(control_ratios) ** 0.5) * 100.0
    )
    allowance = DISABLED_BUDGET_PCT + noise_floor_pct
    disabled = tiers["disabled"]["overhead_pct"]
    assert disabled <= allowance, (
        f"{name}: disabled observability path costs {disabled:.2f}% CPU, "
        f"over budget {DISABLED_BUDGET_PCT}% + measured noise floor "
        f"{noise_floor_pct:.2f}% — a hook leaked into the pool path"
    )
    tiers["method"] = (
        "one pool per tier (worker instrumentation is spawn-bound) plus an "
        "A/A control pool; bar enforced at budget + noise floor"
    )
    tiers["noise_floor_pct"] = noise_floor_pct
    tiers["gate_pct"] = allowance
    return tiers


def _run_workload(name: str, benchmark=None) -> dict:
    dtd, specs, documents = _workload(name)
    solo = _solo_outputs(dtd, specs, documents)

    if benchmark is not None:
        holder = {}

        def target():
            holder["tiers"] = _run_inline(
                f"{name}/inline", dtd, specs, documents, solo
            )
            return holder["tiers"]

        benchmark.pedantic(target, rounds=1, iterations=1)
        inline_tiers = holder["tiers"]
    else:
        inline_tiers = _run_inline(f"{name}/inline", dtd, specs, documents, solo)
    process_tiers = _run_processes(
        f"{name}/processes", dtd, specs, documents, solo
    )

    return {
        "documents": len(documents),
        "queries": len(specs),
        "document_bytes_total": sum(len(doc) for doc in documents),
        "disabled_budget_pct": DISABLED_BUDGET_PCT,
        "backends": {
            "inline": inline_tiers,
            f"processes({WORKERS})": process_tiers,
        },
    }


def test_s6_obs_overhead_bib(benchmark):
    _REPORT["bib"] = _run_workload("bib", benchmark=benchmark)


def test_s6_obs_overhead_xmark(benchmark):
    _REPORT["xmark"] = _run_workload("xmark", benchmark=benchmark)


@pytest.fixture(scope="module", autouse=True)
def report_s6():
    yield
    if not _REPORT:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "s6_obs_overhead.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
    lines = [
        "S6: observability overhead — events/second by instrumentation tier.",
        "QueryService (inline) and ProcessServicePool serve loops on the bib"
        " and XMark streams.  Overhead is the median per-round CPU-time"
        " ratio vs the obs=None baseline (driver + worker processes, tiers"
        " timed back-to-back each round); wall clock cannot resolve 3% on a"
        " shared host.  Inline swaps one service's obs hub between runs"
        " (instance bias cancels exactly); the pool adds an A/A control"
        " pool whose apparent overhead prices the measurement noise.",
        "Bar: the disabled path (hub attached, every component off) must"
        " stay within %.0f%% of baseline CPU (inline: exact; processes:"
        " + the control-measured noise floor)." % DISABLED_BUDGET_PCT,
        "",
    ]
    for workload in sorted(_REPORT):
        entry = _REPORT[workload]
        lines.append(
            f"{workload}: {entry['documents']} documents x {entry['queries']}"
            f" queries ({entry['document_bytes_total']} bytes total)"
        )
        for backend, tiers in entry["backends"].items():
            modes = MODES + (["control"] if "control" in tiers else [])
            lines.append(f"  {backend}:")
            lines.append(
                f"  {'tier':<18}{'events/s':>12}{'elapsed s':>11}"
                f"{'cpu s':>9}{'overhead':>10}"
            )
            for mode in modes:
                tier = tiers[mode]
                lines.append(
                    f"  {mode:<18}{tier['events_per_second']:>12.0f}"
                    f"{tier['best_elapsed_seconds']:>11.3f}"
                    f"{tier['median_cpu_seconds']:>9.3f}"
                    f"{tier['overhead_pct']:>9.2f}%"
                )
            if "gate_pct" in tiers:
                lines.append(
                    f"  bar: disabled <= {entry['disabled_budget_pct']:.0f}%"
                    f" + noise floor {tiers['noise_floor_pct']:.2f}%"
                    f" (measured {tiers['disabled']['overhead_pct']:.2f}%)"
                )
            else:
                lines.append(
                    f"  bar: disabled <= {entry['disabled_budget_pct']:.0f}%"
                    f" (measured {tiers['disabled']['overhead_pct']:.2f}%)"
                )
        lines.append("")
    content = write_report("s6_obs_overhead.txt", "\n".join(lines))
    print("\n" + content)
