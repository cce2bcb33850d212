"""Experiment S8 — static cost model vs observed serving cost.

The analyzer (``repro.analysis.query``) prices every compiled plan before
any data flows: predicted events routed per document, predicted buffered
items, a combined score (what ``repro explain`` prints and what query
registration exposes as ``static_cost``).  This experiment checks the two
claims that make the score *useful*:

1. **Ranking agreement** — across each workload's catalogued fleet, the
   static scores rank the queries roughly as their *measured* per-pass
   cost ranks them (events actually routed to each query plus bytes it
   actually buffered, from a real shared pass).  Absolute calibration is
   not claimed — the model guesses ``*``-axis fan-out — so agreement is
   scored with Kendall's tau over all query pairs.

2. **Auto-mode competitiveness** — the ``--execution auto`` policy
   (:func:`~repro.analysis.query.select_mode`, fed those same estimates)
   picks a serving configuration whose measured serving throughput is
   within 20% of the best manual choice on the same document stream.

Machine-checked acceptance, per workload (bib and XMark):

* Kendall tau between static and measured ranking ≥ 0.3;
* auto-selected configuration throughput ≥ 0.8 × best manual.

Results land in ``benchmarks/results/s8_static_cost.{json,txt}``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import pytest

from repro.analysis.query import estimate_cost, select_mode
from repro.core.optimizer import OptimizerPipeline
from repro.dtd.parser import parse_dtd
from repro.runtime.plan_cache import PlanCache
from repro.service import QueryService, ServicePool
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload
from repro.workloads.xmark import generate_auction_site

from conftest import RESULTS_DIR, write_report

_CONFIGS = {
    "bib": (
        BIB_DTD_STRONG,
        queries_for_workload("bib"),
        lambda: generate_bibliography(num_books=60, seed=2004),
    ),
    "xmark": (
        AUCTION_DTD,
        queries_for_workload("auction"),
        lambda: generate_auction_site(scale=0.2, seed=2004),
    ),
}

#: The manual serving configurations auto competes against —
#: (label, pool workers); ``None`` workers is the plain unpooled serve
#: loop.
_MANUAL = [
    ("inline", None),
    ("inline-pool2", 2),
]

DOCUMENT_COUNT = 6

_REPORT: Dict[str, dict] = {}


def kendall_tau(xs: List[float], ys: List[float]) -> float:
    """Kendall rank correlation over all pairs (ties count as agreement
    when tied in both, else as half-discordance via the simple tau-a on
    untied pairs)."""
    concordant = discordant = 0
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            product = dx * dy
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1
    total = concordant + discordant
    return (concordant - discordant) / total if total else 1.0


def measured_costs(dtd, specs, document) -> Dict[str, float]:
    """Observed per-query pass cost: events routed + buffered-byte weight.

    The same shape as the static score (events dominate, buffering
    weighted in) but from a real shared pass's accounting.
    """
    service = QueryService(dtd)
    for spec in specs:
        service.register(spec.xquery, key=spec.key)
    results = service.run_pass(document)
    forwarded = service.metrics.last_pass.per_query_forwarded
    return {
        spec.key: float(forwarded.get(spec.key, 0))
        + results[spec.key].peak_buffer_bytes / 16.0
        for spec in specs
    }


def serve_throughput(dtd, specs, documents, workers) -> float:
    """Parser bytes per second serving ``documents`` under one config."""
    total_bytes = sum(len(document) for document in documents)
    if workers is None:
        service = QueryService(dtd)
        for spec in specs:
            service.register(spec.xquery, key=spec.key)
        started = time.perf_counter()
        for document in documents:
            service.run_pass(document)
        elapsed = time.perf_counter() - started
    else:
        pool = ServicePool(dtd, workers=workers)
        for spec in specs:
            pool.register(spec.xquery, key=spec.key)
        started = time.perf_counter()
        for outcome in pool.serve(iter(documents)):
            assert outcome.ok, outcome.error
        elapsed = time.perf_counter() - started
    return total_bytes / elapsed


@pytest.mark.parametrize("workload", sorted(_CONFIGS))
def test_s8_static_cost(benchmark, workload):
    dtd_text, specs, make_document = _CONFIGS[workload]
    dtd = parse_dtd(dtd_text)
    document = make_document()
    documents = [document] * DOCUMENT_COUNT
    row: Dict[str, object] = {}

    def run_all():
        # --- 1. static vs measured ranking -------------------------------
        cache = PlanCache()
        pipeline = OptimizerPipeline(dtd)
        static: Dict[str, float] = {}
        estimates = []
        for spec in specs:
            entry, _ = cache.get_or_compile(spec.xquery, pipeline)
            estimate = estimate_cost(entry)
            static[spec.key] = estimate.score
            estimates.append(estimate)
        measured = measured_costs(dtd, specs, document)
        keys = [spec.key for spec in specs]
        tau = kendall_tau([static[k] for k in keys], [measured[k] for k in keys])

        # --- 2. auto mode vs manual configurations -----------------------
        throughput = {
            label: serve_throughput(dtd, specs, documents, workers)
            for label, workers in _MANUAL
        }
        decision = select_mode(
            estimates,
            document_bytes=len(document),
            document_count=DOCUMENT_COUNT,
            cpu_count=os.cpu_count(),
        )
        auto_workers = decision.workers if decision.pooled else None
        auto_label = f"auto(workers={auto_workers})"
        auto = serve_throughput(dtd, specs, documents, auto_workers)
        best_label, best = max(throughput.items(), key=lambda item: item[1])

        row.update(
            {
                "queries": len(specs),
                "document_bytes": len(document),
                "kendall_tau": tau,
                "per_query": {
                    key: {"static": static[key], "measured": measured[key]}
                    for key in keys
                },
                "throughput_bytes_per_second": dict(throughput),
                "auto": {
                    "label": auto_label,
                    "decision": decision.describe(),
                    "reasons": list(decision.reasons),
                    "throughput": auto,
                },
                "best_manual": {"label": best_label, "throughput": best},
                "auto_vs_best": auto / best,
            }
        )

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    _REPORT[workload] = row
    benchmark.extra_info.update(
        {"kendall_tau": row["kendall_tau"], "auto_vs_best": row["auto_vs_best"]}
    )

    # Acceptance: the static ranking agrees with the measured one, and
    # auto is within 20% of the best manual configuration.
    assert row["kendall_tau"] >= 0.3
    assert row["auto_vs_best"] >= 0.8


@pytest.fixture(scope="module", autouse=True)
def report_s8():
    yield
    if not _REPORT:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "s8_static_cost.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
    lines = [
        "S8: static cost model — predicted vs observed, auto vs manual",
        "",
        f"{'workload':<10}{'queries':>8}{'tau':>7}{'auto/best':>11}  "
        f"auto decision / best manual",
    ]
    for workload in sorted(_REPORT):
        row = _REPORT[workload]
        lines.append(
            f"{workload:<10}{row['queries']:>8}{row['kendall_tau']:>7.2f}"
            f"{row['auto_vs_best']:>11.2f}  "
            f"{row['auto']['label']} / {row['best_manual']['label']}"
        )
        lines.append("")
        lines.append(f"  {'query':<28}{'static':>12}{'measured':>12}")
        ranked = sorted(
            row["per_query"].items(), key=lambda item: item[1]["static"]
        )
        for key, scores in ranked:
            lines.append(
                f"  {key:<28}{scores['static']:>12.1f}{scores['measured']:>12.1f}"
            )
        lines.append("")
    content = write_report("s8_static_cost.txt", "\n".join(lines))
    print("\n" + content)
