"""Experiment S7 — fleet scaling: 10 → 10 000 registered queries.

The multi-tenancy claim: serving cost grows with the number of *distinct
query structures*, not with the number of registrants.  A fleet of N
registrations drawn from M base queries (every repeat an alias — bound
variables renamed, so query texts differ while structures collide) is
served two ways:

* **shared** (``dedup=True``, this PR): structural dedup interns the
  fleet to M plans, the routing trie keeps per-event masks M bits wide,
  each structure is evaluated once per pass and the result fanned out to
  its subscribers by reference;
* **linear baseline** (``dedup=False``, the pre-dedup behavior): every
  registration keeps a private plan, routes as its own mask bit, and is
  evaluated independently — cost linear in N by construction.

For each workload (bib and XMark) and each fleet size the experiment
reports parser events per second through the pass and peak traced memory
per registered query (tracemalloc spans registration *and* the pass, so
private-plan weight is charged to the baseline honestly), and
byte-compares a sampled subset of subscribers against solo
:class:`~repro.engines.flux_engine.FluxEngine` runs.

Machine-checked acceptance at N = 10 000 (structures ≤ 100):

* shared events/second ≥ 5× the linear baseline's;
* shared memory per query falls as the fleet grows (sublinear total);
* sampled subscribers byte-identical to solo.

Results land in ``benchmarks/results/s7_fleet_scaling.{json,txt}``.
"""

from __future__ import annotations

import json
import os
import random
import time
import tracemalloc
from typing import Dict, List

import pytest

from repro.bench.fleets import make_fleet, run_solo
from repro.service import QueryService
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload
from repro.workloads.xmark import generate_auction_site

from conftest import RESULTS_DIR, write_report

FLEET_SIZES = [10, 100, 1_000, 10_000]
SAMPLE = 25

_CONFIGS = {
    "bib": (
        BIB_DTD_STRONG,
        [spec.xquery for spec in queries_for_workload("bib")],
        lambda: generate_bibliography(num_books=20, seed=2004),
    ),
    "xmark": (
        AUCTION_DTD,
        [spec.xquery for spec in queries_for_workload("auction")],
        lambda: generate_auction_site(scale=0.1, seed=2004),
    ),
}

_REPORT: Dict[str, dict] = {}


def _measure(dtd, fleet, document, dedup: bool) -> dict:
    """Register the fleet, then measure memory and a steady-state pass.

    tracemalloc wraps registration plus a first (warm-up) pass, so the
    per-registration plan weight — the thing dedup removes — is part of
    the memory figure.  The timed pass runs with tracing off.
    """
    service = QueryService(dtd, dedup=dedup)
    tracemalloc.start()
    try:
        for query in fleet:
            service.register(query.text, key=query.key)
        service.run_pass(document)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    started = time.perf_counter()
    results = service.run_pass(document)
    elapsed = time.perf_counter() - started
    metrics = service.metrics.last_pass
    outputs = {key: result.output for key, result in results.items()}
    return {
        "structures": metrics.structures,
        "parser_events": metrics.parser_events,
        "elapsed_seconds": elapsed,
        "events_per_second": metrics.parser_events / elapsed,
        "peak_traced_bytes": peak_bytes,
        "bytes_per_query": peak_bytes / len(fleet),
        "outputs": outputs,
    }


@pytest.mark.parametrize("workload", sorted(_CONFIGS))
def test_s7_fleet_scaling(benchmark, workload):
    dtd, bases, make_document = _CONFIGS[workload]
    document = make_document()
    rng = random.Random(20040831)
    rows: List[dict] = []

    def run_all() -> List[dict]:
        for total in FLEET_SIZES:
            fleet = make_fleet(bases, total)
            shared = _measure(dtd, fleet, document, dedup=True)
            baseline = _measure(dtd, fleet, document, dedup=False)
            # Differential check on a sample of subscribers (both modes).
            sample_keys = {q.key for q in rng.sample(fleet, min(SAMPLE, total))}
            solo = run_solo(fleet, document, dtd=dtd, keys=sample_keys)
            for key, expected in solo.items():
                assert shared["outputs"][key] == expected, (total, key)
                assert baseline["outputs"][key] == expected, (total, key)
            rows.append(
                {
                    "queries": total,
                    "structures": shared["structures"],
                    "verified_keys": len(solo),
                    "shared": {
                        k: v for k, v in shared.items() if k != "outputs"
                    },
                    "baseline": {
                        k: v for k, v in baseline.items() if k != "outputs"
                    },
                    "speedup": (
                        shared["events_per_second"]
                        / baseline["events_per_second"]
                    ),
                }
            )
        return rows

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    _REPORT[workload] = {
        "document_bytes": len(document),
        "bases": len(bases),
        "rows": rows,
    }
    last = rows[-1]
    benchmark.extra_info.update(
        {
            "queries": last["queries"],
            "structures": last["structures"],
            "speedup_at_10k": last["speedup"],
        }
    )

    # Acceptance, machine-checked at the 10k point.
    assert last["queries"] == 10_000
    assert last["structures"] <= 100
    assert last["speedup"] >= 5.0
    # Memory per query is sublinear in the alias count: the per-query
    # share *falls* as the fleet grows (a linear footprint would hold it
    # constant).
    first = rows[0]
    assert (
        last["shared"]["bytes_per_query"]
        < first["shared"]["bytes_per_query"] / 2
    )


@pytest.fixture(scope="module", autouse=True)
def report_s7():
    yield
    if not _REPORT:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "s7_fleet_scaling.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
    lines = [
        "S7: fleet scaling — shared (structural dedup) vs linear baseline",
        "",
        f"{'workload':<10}{'queries':>8}{'structs':>8}"
        f"{'ev/s shared':>14}{'ev/s linear':>14}{'speedup':>9}"
        f"{'B/query shared':>16}{'B/query linear':>16}",
    ]
    for workload in sorted(_REPORT):
        for row in _REPORT[workload]["rows"]:
            lines.append(
                f"{workload:<10}{row['queries']:>8}{row['structures']:>8}"
                f"{row['shared']['events_per_second']:>14.0f}"
                f"{row['baseline']['events_per_second']:>14.0f}"
                f"{row['speedup']:>9.2f}"
                f"{row['shared']['bytes_per_query']:>16.0f}"
                f"{row['baseline']['bytes_per_query']:>16.0f}"
            )
    content = write_report("s7_fleet_scaling.txt", "\n".join(lines))
    print("\n" + content)
