#!/usr/bin/env python3
"""CI smoke test for the observability CLI surface.

Runs ``python -m repro multi`` with ``--metrics-out``, ``--trace-out``
and ``--log-json`` on a small generated bib workload, once each through
the plain serve loop, a two-worker thread pool and a two-worker process
pool, then validates every emitted artifact with the same validators the
golden tests use (:mod:`repro.obs.validate`):

* the metrics snapshot parses as JSON, carries the headline families and
  publishes every counter once: none of the retired push-style counter
  families, and ``<prefix>_passes_completed`` equal to the
  ``repro_pass_duration_seconds`` count equal to the documents served;
* the ``.prom`` twin passes the Prometheus text-exposition validator;
* the trace file is span JSON-lines, one trace id per served document,
  with the pool run's worker-side pass spans joined to parent traces;
* the log file is event JSON-lines with the backend's lifecycle events
  (pass start/finish for the serve loop; register/ship for the pool,
  whose workers keep pass events in-process);
* ``repro stats`` pretty-prints the snapshot and exits 0;
* the skipped-subtree series (subtrees the parser skipped because no
  query reads them) is exported on every backend, and is non-zero on a
  pass serving BIB-Q1 alone.

Exits nonzero with a problem listing on any failure.  Run from anywhere:
``python scripts/ci_obs_smoke.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.obs.validate import (  # noqa: E402
    LOG_KEYS,
    TRACE_KEYS,
    validate_json_lines,
    validate_prometheus_text,
)
from repro.workloads.bibgen import generate_bibliography  # noqa: E402
from repro.workloads.dtds import BIB_DTD_STRONG  # noqa: E402
from repro.workloads.queries import queries_for_workload  # noqa: E402

DOCUMENTS = 3

#: Counter families that duplicated the service/pool lifetime gauges and
#: were retired; a snapshot carrying one counts something twice.
RETIRED_FAMILIES = (
    "repro_passes_total",
    "repro_events_total",
    "repro_results_total",
    "repro_document_bytes_total",
    "repro_subtrees_pruned_total",
)

#: Extra ``multi`` arguments per smoke-tested backend.
BACKENDS = {
    "serve-loop": [],
    "threads": ["--workers", "2"],
    "processes": ["--workers", "2", "--backend", "processes"],
}


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_cli(argv, problems, label):
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        capture_output=True,
        text=True,
        env=_cli_env(),
        cwd=REPO_ROOT,
    )
    if proc.returncode != 0:
        problems.append(
            f"{label}: exit {proc.returncode}\nstderr:\n{proc.stderr[-2000:]}"
        )
    return proc


def _check_artifacts(base, backend, problems):
    prefix = f"multi[{backend}]"

    metrics_path = os.path.join(base, "metrics.json")
    try:
        with open(metrics_path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, ValueError) as exc:
        problems.append(f"{prefix}: metrics snapshot unreadable: {exc}")
        snapshot = {}
    if snapshot:
        summary_prefix = "repro_service" if backend == "serve-loop" else "repro_pool"
        passes_family = f"{summary_prefix}_passes_completed"
        for family in (
            passes_family,
            "repro_stage_duration_seconds",
            "repro_pass_duration_seconds",
        ):
            if family not in snapshot:
                problems.append(f"{prefix}: metrics snapshot lacks {family}")
        skipped = f"{summary_prefix}_skipped_subtrees_total"
        if skipped not in snapshot:
            problems.append(f"{prefix}: metrics snapshot lacks {skipped}")
        for family in RETIRED_FAMILIES:
            if family in snapshot:
                problems.append(f"{prefix}: metrics snapshot carries retired {family}")
        if passes_family in snapshot and "repro_pass_duration_seconds" in snapshot:
            passes = snapshot[passes_family]["values"][0]["value"]
            observed = snapshot["repro_pass_duration_seconds"]["values"][0]["count"]
            if not passes == observed == DOCUMENTS:
                problems.append(
                    f"{prefix}: {passes_family}={passes}, pass histogram "
                    f"count={observed}, documents served={DOCUMENTS}"
                )

    with open(metrics_path + ".prom", "r", encoding="utf-8") as handle:
        prom_problems = validate_prometheus_text(handle.read())
    problems.extend(f"{prefix}: prom: {p}" for p in prom_problems)

    trace_path = os.path.join(base, "trace.jsonl")
    with open(trace_path, "r", encoding="utf-8") as handle:
        trace_lines = handle.read().splitlines()
    problems.extend(
        f"{prefix}: trace: {p}"
        for p in validate_json_lines(trace_lines, TRACE_KEYS)
    )
    spans = [json.loads(line) for line in trace_lines if line.strip()]
    traces = {}
    for span in spans:
        traces.setdefault(span.get("trace_id"), set()).add(span.get("name"))
    document_traces = [names for names in traces.values() if "pass" in names]
    if len(document_traces) != DOCUMENTS:
        problems.append(
            f"{prefix}: trace: expected {DOCUMENTS} document traces, "
            f"got {len(document_traces)}"
        )
    for names in document_traces:
        if "pass.route" not in names:
            problems.append(
                f"{prefix}: trace: a document trace lacks stage spans: {sorted(names)}"
            )
        if backend != "serve-loop" and "pool.shard" not in names:
            problems.append(
                f"{prefix}: trace: worker-side pass spans did not merge "
                f"under the parent shard trace: {sorted(names)}"
            )

    log_path = os.path.join(base, "log.jsonl")
    with open(log_path, "r", encoding="utf-8") as handle:
        log_lines = handle.read().splitlines()
    problems.extend(
        f"{prefix}: log: {p}" for p in validate_json_lines(log_lines, LOG_KEYS)
    )
    events = {
        json.loads(line).get("event") for line in log_lines if line.strip()
    }
    # Pool workers' lifecycle events stay unlogged (a process worker
    # forwards only spans and pass metrics; thread workers share no
    # logger), so the pool's log carries the pool lifecycle instead.
    expected = {
        "serve-loop": {"service.register", "pass.start", "pass.finish"},
        "threads": {"pool.register"},
        "processes": {"pool.register", "pool.ship"},
    }[backend]
    missing = expected - events
    if missing:
        problems.append(f"{prefix}: log: lifecycle events missing: {sorted(missing)}")


def _check_skipped(tmp, dtd_path, documents, problems):
    """A pass serving BIB-Q1 alone skips the authors nobody reads."""
    query_dir = os.path.join(tmp, "q1")
    os.makedirs(query_dir)
    spec = queries_for_workload("bib")[0]
    with open(os.path.join(query_dir, f"{spec.key}.xq"), "w", encoding="utf-8") as handle:
        handle.write(spec.xquery)
    metrics_path = os.path.join(tmp, "q1-metrics.json")
    argv = [
        "multi",
        "--queries", query_dir,
        "--dtd", dtd_path,
        "--documents", *documents,
        "--output-dir", os.path.join(tmp, "q1-out"),
        "--metrics-out", metrics_path,
    ]
    if _run_cli(argv, problems, "multi[BIB-Q1]").returncode != 0:
        return
    with open(metrics_path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    family = snapshot.get("repro_service_skipped_subtrees_total")
    skipped = family["values"][0]["value"] if family else 0
    if not skipped:
        problems.append(f"multi[BIB-Q1]: repro_service_skipped_subtrees_total is {skipped}")


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="obs_smoke_") as tmp:
        query_dir = os.path.join(tmp, "queries")
        os.makedirs(query_dir)
        for spec in queries_for_workload("bib")[:3]:
            with open(os.path.join(query_dir, f"{spec.key}.xq"), "w",
                      encoding="utf-8") as handle:
                handle.write(spec.xquery)
        dtd_path = os.path.join(tmp, "bib.dtd")
        with open(dtd_path, "w", encoding="utf-8") as handle:
            handle.write(BIB_DTD_STRONG)
        documents = []
        for index in range(DOCUMENTS):
            path = os.path.join(tmp, f"doc{index}.xml")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(generate_bibliography(num_books=20, seed=7 + index))
            documents.append(path)

        for backend, extra in BACKENDS.items():
            base = os.path.join(tmp, backend)
            os.makedirs(base)
            argv = [
                "multi",
                "--queries", query_dir,
                "--dtd", dtd_path,
                "--documents", *documents,
                "--output-dir", os.path.join(base, "out"),
                "--metrics-out", os.path.join(base, "metrics.json"),
                "--trace-out", os.path.join(base, "trace.jsonl"),
                "--log-json", os.path.join(base, "log.jsonl"),
                *extra,
            ]
            before = len(problems)
            _run_cli(argv, problems, f"multi[{backend}]")
            if len(problems) == before:
                _check_artifacts(base, backend, problems)
                stats = _run_cli(
                    ["stats", os.path.join(base, "metrics.json")],
                    problems, f"stats[{backend}]",
                )
                if (stats.returncode == 0
                        and "repro_pass_duration_seconds" not in stats.stdout):
                    problems.append(
                        f"stats[{backend}]: pretty-printed snapshot lacks "
                        "repro_pass_duration_seconds"
                    )
            print(f"[obs-smoke] {backend}: "
                  + ("FAIL" if len(problems) > before else "ok"))

        before = len(problems)
        _check_skipped(tmp, dtd_path, documents, problems)
        print("[obs-smoke] skipped subtrees: "
              + ("FAIL" if len(problems) > before else "ok"))

    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"[obs-smoke] FAILED with {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    print("[obs-smoke] all backends emitted valid metrics, traces, and logs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
