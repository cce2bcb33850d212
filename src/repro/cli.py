"""Command-line interface.

Installed as the ``fluxrepro`` console script, or run as a module::

    python -m repro run --query query.xq --input document.xml [--dtd schema.dtd]
    python -m repro explain --query query.xq --dtd schema.dtd
    python -m repro compare --query query.xq --input document.xml --dtd schema.dtd
    python -m repro multi --queries queries/ --input document.xml [--dtd schema.dtd]

* ``run`` evaluates an XQuery over an XML document with the FluX engine and
  writes the result to stdout (or ``--output``), reporting buffering and
  timing statistics on stderr.
* ``explain`` compiles a query and prints the optimizer stages: the
  normalized/optimized XQuery, the generated FluX query, and the buffer
  description forest.
* ``compare`` runs the query with all three engines (FluX, projection, DOM)
  and prints a memory/runtime comparison table.
* ``multi`` serves a whole *directory* of queries (``*.xq``) over one
  document (``--input``) or a whole sequence of documents (``--documents``,
  the serve loop: one shared pass per document, plans compiled once) —
  every query is compiled through the shared plan cache and executed by the
  multi-query :class:`~repro.service.QueryService`, so each document is
  parsed and validated once, not once per query; each query receives only
  the events the shared router deems relevant to *it*.  ``--execution``
  picks the front end: the sync serve loop (``inline``, the default) or
  the asyncio one (``async``) over the same pass.
  ``--workers N`` upgrades the serve loop to a fault-isolated
  :class:`~repro.service.ServicePool`: N mirrored services sharing one
  plan cache shard the document stream, a document that fails mid-pass is
  reported and skipped (exit status 1) instead of aborting the stream,
  and results are reported as they complete.  ``--backend processes``
  moves the pool workers into separate *processes*
  (:class:`~repro.service.ProcessServicePool`): the parent compiles each
  query once and ships the pickled plan to every worker, evaluation
  parallelizes across cores instead of interleaving under the GIL, and a
  crashed worker process is respawned with its in-flight document
  reported as an error.  ``--plan-cache-file PATH`` warm-starts the plan
  cache from a previous run's snapshot (and saves an updated snapshot on
  exit), so a restarted service skips cold compilation.  Results go to
  ``--output-dir`` (one ``<name>.xml`` per query; one subdirectory per
  document when serving several) or stdout; per-query statistics and the
  shared scan's savings are reported on stderr, and ``--json`` dumps them
  machine-readably.  Observability is opt-in per component:
  ``--metrics-out FILE`` writes a metrics snapshot (JSON plus
  ``FILE.prom`` Prometheus text), ``--trace-out FILE`` writes stage spans
  as JSON-lines (one trace id per document, propagated into pool
  workers), and ``--log-json [FILE]`` writes structured lifecycle events;
  with all three off the serving path is the uninstrumented one.
* ``stats`` pretty-prints a metrics snapshot written by
  ``multi --metrics-out``.

Queries and documents are read from files; ``-`` means stdin.  The DTD can
be given explicitly with ``--dtd``; otherwise, if the document carries a
DOCTYPE with an internal subset, that subset is used; without any schema the
query still runs, with maximal buffering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.core.optimizer import OptimizerPipeline
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engines.dom_engine import DomEngine
from repro.engines.flux_engine import FluxEngine
from repro.engines.projection_engine import ProjectionEngine
from repro.bench.harness import BenchmarkHarness
from repro.bench.reporting import format_table
from repro.obs import (
    JsonLinesSink,
    JsonLogger,
    MetricsRegistry,
    Observability,
    Tracer,
    format_snapshot,
)
from repro.runtime.plan_cache import PlanCache
from repro.service import (
    AsyncQueryService,
    AsyncServicePool,
    FileDocument,
    ProcessServicePool,
    QueryService,
    ServicePool,
)
from repro.xmlstream.events import StartElement
from repro.xmlstream.parser import StreamingXMLParser


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_dtd(dtd_path: Optional[str], document) -> Optional[DTD]:
    """The DTD for a run: an explicit file, or the document's DOCTYPE.

    ``document`` is XML text or a file-like object.  The DOCTYPE declaration
    lives in the prolog, so parsing up to the first start tag is enough —
    draining the whole event stream here would parse every document twice.
    """
    if dtd_path:
        return parse_dtd(_read(dtd_path))
    if document is not None:
        parser = StreamingXMLParser(document)
        try:
            for event in parser.events():
                if parser.doctype_internal_subset is not None or isinstance(
                    event, StartElement
                ):
                    break
        except Exception:  # pragma: no cover - malformed input surfaces later
            return None
        if parser.doctype_internal_subset:
            return parse_dtd(parser.doctype_internal_subset)
    return None


def _write_result(output: str, path: Optional[str]) -> None:
    """Write a query result, identically to a file or to stdout."""
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
    else:
        sys.stdout.write(output + "\n")


def _command_run(args: argparse.Namespace) -> int:
    query = _read(args.query)
    document = _read(args.input)
    dtd = _load_dtd(args.dtd, document)
    engine = FluxEngine(dtd, validate=not args.no_validate)
    result = engine.execute(query, document)
    _write_result(result.output, args.output)
    print(
        f"[flux] peak buffer: {result.peak_buffer_bytes} B, "
        f"time: {result.stats.elapsed_seconds * 1000:.1f} ms, "
        f"events: {result.stats.events_processed}",
        file=sys.stderr,
    )
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    """Compile a query and print optimizer stages + the static analysis.

    Sections, in order: the optimizer's own ``describe()`` stages, the
    buffer description forest, safety, the scheduler's buffering
    decisions, the analyzer's plan DAG / buffer bounds / predicted cost /
    chosen serving configuration, and (last, so golden tests can truncate the
    only nondeterministic part) the optimizer timings.
    """
    from repro.analysis.query import explain_compiled
    from repro.errors import ReproError
    from repro.runtime.compiler import compile_query

    try:
        query = _read(args.query)
        dtd = _load_dtd(args.dtd, None)
        entry = compile_query(query, pipeline=OptimizerPipeline(dtd))
    except (OSError, ReproError) as exc:
        print(f"explain: {exc}", file=sys.stderr)
        return 2
    compiled = entry.optimized
    print(compiled.describe())
    print("== Buffer description forest ==")
    print(entry.plan.bdf.describe())
    print("== Safety ==")
    print("safe" if compiled.is_safe else "\n".join(str(v) for v in compiled.safety_violations))
    reasons = compiled.scheduling_report.buffer_reasons
    if reasons:
        print("== Buffering decisions ==")
        for reason in reasons:
            print(f"    - {reason}")
    observations = None
    if args.plan_cache_file:
        cache = PlanCache()
        if os.path.exists(args.plan_cache_file):
            try:
                cache.load(args.plan_cache_file)
            except ValueError as exc:
                print(f"explain: {exc}", file=sys.stderr)
                return 2
            observations = cache.observations_for(entry)
    print(
        explain_compiled(
            entry,
            document_bytes=args.document_bytes,
            document_count=args.document_count,
            cpu_count=args.cpus,
            observations=observations,
        )
    )
    print("== Optimizer timings ==")
    for stage in ("parse", "normalize", "optimize", "schedule", "safety"):
        if stage in compiled.stage_seconds:
            print(f"{stage:<9} {compiled.stage_seconds[stage] * 1000:9.3f} ms")
    print(f"{'total':<9} {compiled.optimize_seconds * 1000:9.3f} ms")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot written by ``multi --metrics-out``."""
    try:
        text = _read(args.snapshot)
    except OSError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    try:
        snapshot = json.loads(text)
    except ValueError as exc:
        print(f"stats: {args.snapshot} is not a metrics snapshot: {exc}", file=sys.stderr)
        return 2
    if not isinstance(snapshot, dict):
        print(f"stats: {args.snapshot} is not a metrics snapshot", file=sys.stderr)
        return 2
    sys.stdout.write(format_snapshot(snapshot))
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    """Run the in-repo static-analysis suite (``repro.analysis``)."""
    from repro.analysis import (
        all_codes,
        default_lint_root,
        render_json,
        render_sarif,
        render_text,
        run_lint,
        write_baseline,
    )

    if args.check_baseline and not args.baseline:
        print("lint: --check-baseline requires --baseline FILE", file=sys.stderr)
        return 2
    paths = args.paths or [default_lint_root()]
    for path in paths:
        if not os.path.exists(path):
            print(f"lint: no such file or directory: {path}", file=sys.stderr)
            return 2
    fail_on: Optional[set] = None
    if args.fail_on and args.fail_on != "all":
        fail_on = {code.strip() for code in args.fail_on.split(",") if code.strip()}
        unknown = fail_on - set(all_codes())
        if unknown:
            print(f"lint: unknown finding code(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
    try:
        result = run_lint(paths, baseline_path=args.baseline)
    except (OSError, ValueError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(result.findings, args.write_baseline)
        print(
            f"lint: wrote {len(result.findings)} finding(s) to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    stale = result.stale if args.check_baseline else []
    for fingerprint in stale:
        print(
            "lint: stale baseline suppression (no longer fires): "
            + "|".join(fingerprint),
            file=sys.stderr,
        )
    if result.errors or result.failing(fail_on) or stale:
        return 1
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    query = _read(args.query)
    document = _read(args.input)
    dtd = _load_dtd(args.dtd, document)
    engines = {
        "flux": FluxEngine(dtd),
        "projection": ProjectionEngine(dtd),
        "dom": DomEngine(dtd),
    }
    harness = BenchmarkHarness(engines)
    harness.run(query, document, args.query, args.input)
    print(format_table(harness.measurements, metric="peak_buffer_bytes", title="peak buffer memory"))
    print()
    print(format_table(harness.measurements, metric="elapsed_seconds", title="evaluation runtime"))
    return 0


def _load_multi_queries(queries_dir: str):
    """The ``multi`` query catalogue: ``[(key, xquery text)]`` or an error.

    Returns ``(pairs, error_message)``; an empty directory or a blank query
    file is a *user* error reported cleanly (no pass is ever opened with
    zero plans, no parser traceback for an empty file).
    """
    query_files = sorted(
        name for name in os.listdir(queries_dir) if name.endswith(".xq")
    )
    if not query_files:
        return None, f"no *.xq files in {queries_dir}"
    pairs = []
    for name in query_files:
        path = os.path.join(queries_dir, name)
        text = _read(path)
        if not text.strip():
            return None, f"query file {path} is empty"
        pairs.append((os.path.splitext(name)[0], text))
    return pairs, None


def _document_labels(paths) -> "list":
    """A unique, filesystem-safe label per served document path."""
    labels = []
    taken = set()
    for path in paths:
        stem = "stdin" if path == "-" else os.path.splitext(os.path.basename(path))[0]
        label, count = stem, 1
        while label in taken:  # suffix until unique, even vs. real stems
            count += 1
            label = f"{stem}.{count}"
        taken.add(label)
        labels.append(label)
    return labels


def _multi_report_pass(label, results, metrics, args, per_document: bool) -> None:
    """Print one pass's results/statistics (stdout + stderr)."""
    prefix = f"{label}/" if per_document else ""
    out_dir = args.output_dir
    if out_dir and per_document:
        out_dir = os.path.join(out_dir, label)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for key in sorted(results):
        result = results[key]
        if out_dir:
            _write_result(result.output, os.path.join(out_dir, f"{key}.xml"))
        else:
            sys.stdout.write(f"<!-- {prefix}{key} -->\n")
            _write_result(result.output, None)
        routed = metrics.per_query_forwarded.get(key)
        routed_note = f", routed: {routed}" if routed is not None else ""
        print(
            f"[{prefix}{key}] peak buffer: {result.peak_buffer_bytes} B, "
            f"time: {result.stats.elapsed_seconds * 1000:.1f} ms, "
            f"events: {result.stats.events_processed}{routed_note}",
            file=sys.stderr,
        )
    print(
        f"[shared pass{' ' + label if per_document else ''}] "
        f"{metrics.queries} queries, one scan: "
        f"{metrics.parser_events} parser events "
        f"({metrics.events_saved_vs_solo} saved vs. solo runs), "
        f"{metrics.events_forwarded} forwarded, "
        f"{metrics.events_pruned} pruned, "
        f"{metrics.text_events_dropped} text dropped, "
        f"time: {metrics.elapsed_seconds * 1000:.1f} ms",
        file=sys.stderr,
    )


def _build_observability(args: argparse.Namespace) -> Optional[Observability]:
    """The observability hub for one ``multi`` run (``None``: all flags off).

    Each flag enables exactly one component: ``--metrics-out`` the
    registry, ``--trace-out`` a JSON-lines span sink, and ``--log-json``
    the structured event log (to a file, or stderr for the bare flag).
    With every flag off the serving code keeps its original,
    uninstrumented path.
    """
    if not (args.metrics_out or args.trace_out or args.log_json):
        return None
    return Observability(
        metrics=MetricsRegistry() if args.metrics_out else None,
        tracer=Tracer(JsonLinesSink(args.trace_out)) if args.trace_out else None,
        logger=(
            JsonLogger(sys.stderr if args.log_json == "-" else args.log_json)
            if args.log_json
            else None
        ),
    )


def _finalize_observability(obs, args) -> None:
    """Write the run's metrics snapshot and close the sinks.

    Runs on every exit path of ``multi``, so a run that stopped at a
    failing document still leaves a snapshot of the passes that
    completed.  ``--metrics-out`` receives the JSON snapshot and
    ``--metrics-out``+``.prom`` the Prometheus text exposition.
    """
    if obs.metrics is not None:
        snapshot = obs.metrics.snapshot()
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
        prom_path = args.metrics_out + ".prom"
        with open(prom_path, "w", encoding="utf-8") as handle:
            handle.write(obs.metrics.to_prometheus())
        print(
            f"[obs] metrics snapshot: {args.metrics_out} "
            f"(Prometheus text: {prom_path})",
            file=sys.stderr,
        )
    obs.close()


def _command_multi(args: argparse.Namespace) -> int:
    if bool(args.input) == bool(args.documents):
        print("multi: give exactly one of --input or --documents", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("multi: --workers must be at least 1", file=sys.stderr)
        return 2
    # "auto" anywhere defers the unset knobs to the static analyzer's
    # mode policy, resolved below once queries, schema, and document
    # sizes are in hand.
    auto_requested = "auto" in (args.execution, args.backend)
    if args.backend == "processes" and args.workers is None:
        print("multi: --backend processes requires --workers N", file=sys.stderr)
        return 2
    if args.execution != "async":
        args.execution = "inline"  # unset or auto
    if args.backend == "processes" and args.execution == "async":
        print(
            "multi: --execution async is the asyncio front end of the "
            "in-process backend; --backend processes cannot use it",
            file=sys.stderr,
        )
        return 2
    queries, error = _load_multi_queries(args.queries)
    if error:
        print(error, file=sys.stderr)
        return 2
    paths = args.documents if args.documents else [args.input]
    labels = _document_labels(paths)
    per_document = len(paths) > 1

    # --plan-cache-file: warm-start compilation from a previous run's
    # snapshot; an updated snapshot is saved after serving.
    plan_cache = None
    if args.plan_cache_file:
        plan_cache = PlanCache()
        if os.path.exists(args.plan_cache_file):
            try:
                preloaded = plan_cache.load(args.plan_cache_file)
            except ValueError as exc:
                print(f"multi: {exc}", file=sys.stderr)
                return 2
            print(
                f"[plan-cache] warm start: {preloaded} plans loaded from "
                f"{args.plan_cache_file}",
                file=sys.stderr,
            )

    # Unlike `run`, the shared pass never needs a whole document in memory:
    # file inputs are streamed (the prolog of the first one is re-read
    # separately for an embedded DOCTYPE); only stdin must be buffered.
    stdin_text = sys.stdin.read() if "-" in paths else None
    if args.dtd:
        dtd = _load_dtd(args.dtd, None)
    elif paths[0] == "-":
        dtd = _load_dtd(None, stdin_text)
    else:
        with open(paths[0], "r", encoding="utf-8") as prolog:
            dtd = _load_dtd(None, prolog)

    # --execution auto / --backend auto: compile the fleet up front (through
    # the plan cache, so the work is reused by the serving pass and the
    # estimates pick up any persisted pass observations) and let the static
    # cost model fill in whichever knobs were left to it.  Explicit values —
    # including an explicit --workers — always win over the policy.
    if auto_requested:
        from repro.analysis.query import (
            apply_observations,
            estimate_cost,
            select_mode,
        )
        from repro.errors import ReproError

        if plan_cache is None:
            plan_cache = PlanCache()
        pipeline = OptimizerPipeline(dtd)
        costs = []
        for _key, text in queries:
            try:
                entry, _ = plan_cache.get_or_compile(text, pipeline)
            except ReproError as exc:
                print(f"multi: {exc}", file=sys.stderr)
                return 2
            costs.append(
                apply_observations(
                    estimate_cost(entry), plan_cache.observations_for(entry)
                )
            )
        sizes = []
        for path in paths:
            if path == "-":
                sizes.append(len((stdin_text or "").encode("utf-8")))
            else:
                try:
                    sizes.append(os.path.getsize(path))
                except OSError:
                    pass  # missing file surfaces as a serve error later
        decision = select_mode(
            costs,
            document_bytes=max(sizes) if sizes else None,
            document_count=len(paths),
        )
        if args.backend == "auto":
            # async is the front end of the in-process backend; an auto
            # backend under it can only mean that backend's thread pool.
            args.backend = (
                "threads" if args.execution == "async" else decision.backend
            )
        if args.workers is None and decision.workers is not None:
            args.workers = decision.workers
        print(f"[auto] {decision.describe()}", file=sys.stderr)
        for reason in decision.reasons:
            print(f"[auto]   - {reason}", file=sys.stderr)

    # Any explicit --workers (1 included) selects the fault-isolated pool;
    # the default is the plain all-or-nothing serve loop.
    pooled = args.workers is not None
    workers = args.workers if pooled else 1

    def documents():
        """One recipe per served path: the worker that serves a document
        opens, streams and closes its file, inside the step's fault
        isolation (an unopenable file is a failed document)."""
        for path in paths:
            yield stdin_text if path == "-" else FileDocument(path)

    validate = not args.no_validate
    obs = _build_observability(args)
    # Each pass is reported (stdout/stderr/files) as soon as it finishes —
    # a long stream never buffers results, a mid-stream failure leaves
    # every completed document's output already delivered, and with a pool
    # a failing document is reported as an error while the rest of the
    # stream keeps serving.  Only the small per-pass accounting is
    # retained, for the --json summary (never the QueryResults themselves:
    # their outputs can dwarf the documents).
    served = []  # (label, {outcome/worker/error/metrics}, {key: stats dict})

    def report(outcome) -> None:
        label = labels[outcome.index]
        accounting = {
            "outcome": outcome.outcome,
            "worker": outcome.worker,
            "error": str(outcome.error) if outcome.error is not None else None,
            "metrics": outcome.metrics,
        }
        if not outcome.ok:
            print(
                f"[{label}] ERROR: {type(outcome.error).__name__}: {outcome.error}",
                file=sys.stderr,
            )
            served.append((label, accounting, {}))
            return
        _multi_report_pass(label, outcome.results, outcome.metrics, args, per_document)
        served.append(
            (
                label,
                accounting,
                {key: result.stats.as_dict() for key, result in outcome.results.items()},
            )
        )

    # Every mode shares one registration surface and one serve/report
    # loop; only the service class differs.
    if args.execution == "async":
        service = (
            AsyncServicePool(dtd, workers=workers, validate=validate,
                             plan_cache=plan_cache, obs=obs)
            if pooled
            else AsyncQueryService(dtd, validate=validate, plan_cache=plan_cache,
                                   obs=obs)
        )
    elif args.backend == "processes":
        service = ProcessServicePool(
            dtd, workers=workers, validate=validate, plan_cache=plan_cache, obs=obs
        )
    elif pooled:
        service = ServicePool(
            dtd, workers=workers, validate=validate, plan_cache=plan_cache, obs=obs
        )
    else:
        service = QueryService(dtd, validate=validate, plan_cache=plan_cache, obs=obs)
    if obs is not None and obs.metrics is not None:
        service.register_metrics(obs.metrics)

    try:
        for key, text in queries:
            service.register(text, key=key)
        if args.execution == "async":
            import asyncio

            async def drive():
                async for outcome in service.serve(documents()):
                    report(outcome)

            asyncio.run(drive())
        else:
            for outcome in service.serve(documents()):
                report(outcome)
    finally:
        if args.backend == "processes":
            service.close()
        if obs is not None:
            _finalize_observability(obs, args)

    if args.plan_cache_file:
        saved = service.plan_cache.dump(args.plan_cache_file)
        print(
            f"[plan-cache] snapshot saved: {saved} plans to "
            f"{args.plan_cache_file}",
            file=sys.stderr,
        )

    failures = sum(1 for _, accounting, _ in served if accounting["outcome"] != "ok")
    totals = service.metrics
    if pooled:
        shipping = (
            f", {totals.ship_count} plans shipped ({totals.ship_bytes} B)"
            if totals.ship_count
            else ""
        )
        print(
            f"[pool] {totals.workers} workers "
            f"({'async' if args.execution == 'async' else args.backend}), "
            f"{totals.documents_served} documents "
            f"({totals.documents_failed} failed), "
            f"{len(queries)} standing queries, "
            f"{totals.parser_events_total} parser events total, "
            f"{totals.events_forwarded_total} forwarded, "
            f"{totals.events_pruned_total} pruned"
            f"{shipping}",
            file=sys.stderr,
        )
    elif per_document:
        print(
            f"[serve] {totals.passes_completed} documents, "
            f"{len(queries)} standing queries, "
            f"{totals.parser_events_total} parser events total, "
            f"{totals.events_forwarded_total} forwarded, "
            f"{totals.events_pruned_total} pruned",
            file=sys.stderr,
        )
    if args.json:
        summary = service.stats_summary()
        summary["execution"] = args.execution
        summary["backend"] = args.backend
        summary["workers"] = workers
        summary["documents"] = [
            {
                "label": label,
                "outcome": accounting["outcome"],
                "worker": accounting["worker"],
                "error": accounting["error"],
                **accounting["metrics"].as_dict(),
            }
            for label, accounting, _ in served
        ]
        summary["results"] = {
            (f"{label}/{key}" if per_document else key): stats
            for label, _, stats_by_key in served
            for key, stats in stats_by_key.items()
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FluXQuery reproduction: streaming XQuery with DTD-driven buffer minimization",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="evaluate a query over a document")
    run_parser.add_argument("--query", "-q", required=True, help="XQuery file ('-' for stdin)")
    run_parser.add_argument("--input", "-i", required=True, help="XML document file ('-' for stdin)")
    run_parser.add_argument("--dtd", "-d", help="DTD file (defaults to the document's DOCTYPE)")
    run_parser.add_argument("--output", "-o", help="result file (default stdout)")
    run_parser.add_argument("--no-validate", action="store_true", help="skip DTD validation")
    run_parser.set_defaults(handler=_command_run)

    explain_parser = subparsers.add_parser(
        "explain",
        help="show the optimizer stages, buffer-bound classes, predicted "
        "cost, and chosen serving configuration for a query",
    )
    explain_parser.add_argument("--query", "-q", required=True)
    explain_parser.add_argument("--dtd", "-d", help="DTD file")
    explain_parser.add_argument(
        "--document-bytes",
        type=int,
        default=None,
        metavar="N",
        help="typical document size in bytes for mode selection "
        "(default: assume 1 MiB)",
    )
    explain_parser.add_argument(
        "--document-count",
        type=int,
        default=1,
        metavar="N",
        help="how many documents the workload will serve (default: 1)",
    )
    explain_parser.add_argument(
        "--cpus",
        type=int,
        default=None,
        metavar="N",
        help="assume N usable cores for mode selection (default: detect)",
    )
    explain_parser.add_argument(
        "--plan-cache-file",
        "-p",
        metavar="PATH",
        help="read observed pass metrics from a plan-cache snapshot "
        "(written by multi --plan-cache-file) to calibrate the predicted "
        "cost with measured events",
    )
    explain_parser.set_defaults(handler=_command_explain)

    compare_parser = subparsers.add_parser("compare", help="compare engines on one query/document")
    compare_parser.add_argument("--query", "-q", required=True)
    compare_parser.add_argument("--input", "-i", required=True)
    compare_parser.add_argument("--dtd", "-d", help="DTD file")
    compare_parser.set_defaults(handler=_command_compare)

    multi_parser = subparsers.add_parser(
        "multi",
        help="run a directory of queries over one or more documents, "
        "one shared pass per document",
    )
    multi_parser.add_argument(
        "--queries", "-Q", required=True, help="directory of *.xq query files"
    )
    multi_parser.add_argument("--input", "-i", help="XML document file ('-' for stdin)")
    multi_parser.add_argument(
        "--documents",
        "-D",
        nargs="+",
        metavar="DOC",
        help="serve several XML documents in one process (the serving loop: "
        "one shared pass each, plans compiled once; '-' for stdin)",
    )
    multi_parser.add_argument(
        "--dtd", "-d", help="DTD file (defaults to the first document's DOCTYPE)"
    )
    multi_parser.add_argument(
        "--output-dir",
        "-O",
        help="directory for per-query results (default stdout; one "
        "subdirectory per document with --documents)",
    )
    multi_parser.add_argument("--json", "-j", help="write service metrics/results as JSON")
    multi_parser.add_argument("--no-validate", action="store_true", help="skip DTD validation")
    multi_parser.add_argument(
        "--execution",
        "-x",
        choices=["inline", "async", "auto"],
        default=None,
        help="serving front end: inline (the default) drives each pass on "
        "the feeding thread, async is the asyncio front end over the same "
        "pass, auto lets the static cost model fill in --backend/--workers "
        "from the fleet's predicted per-event cost, the document sizes, "
        "and the machine's CPU count",
    )
    multi_parser.add_argument(
        "--workers",
        "-w",
        type=int,
        default=None,
        metavar="N",
        help="serve with a fault-isolated pool of N mirrored services "
        "sharing one plan cache: documents are sharded across the workers "
        "(overlapping ingestion), a failing document is reported and "
        "skipped instead of aborting the stream, and the exit status is "
        "nonzero if any document failed (N=1 is a pool of one — still "
        "fault-isolated; the default is the plain all-or-nothing serve "
        "loop)",
    )
    multi_parser.add_argument(
        "--backend",
        "-b",
        choices=["threads", "processes", "auto"],
        default="threads",
        help="where the pool workers run: threads in this process "
        "(default; overlapping ingestion, evaluation interleaved under "
        "the GIL), separate worker processes (each query compiled once "
        "in the parent and shipped as a pickled plan; evaluation runs in "
        "parallel on separate cores, and a crashed worker is respawned "
        "with its document reported as an error; requires --workers), or "
        "auto — let the static cost model pick backend and worker count "
        "(an explicit --workers still wins)",
    )
    multi_parser.add_argument(
        "--plan-cache-file",
        "-p",
        metavar="PATH",
        help="warm-start the plan cache from PATH when it exists and save "
        "an updated snapshot there after serving, so a restarted service "
        "skips cold compilation (keys are stable (query, DTD fingerprint) "
        "pairs, valid across processes and restarts)",
    )
    multi_parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="publish the service/pool lifetime totals and plan-cache "
        "counters, each once, beside stage and pass latency histograms, "
        "and write the snapshot to FILE as JSON plus FILE.prom as "
        "Prometheus text exposition — also when a failing document stops "
        "the run (pretty-print the JSON later with `repro stats FILE`)",
    )
    multi_parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="record stage spans (pass parse/route/evaluate/emit; "
        "pool shard/ship/respawn) as JSON-lines to FILE; one trace id per "
        "document, propagated to pool workers — including across process "
        "pipes and crash-respawns, so a document's worker-side spans merge "
        "into the same trace as its parent-side ones",
    )
    multi_parser.add_argument(
        "--log-json",
        nargs="?",
        const="-",
        metavar="FILE",
        help="write structured JSON-lines lifecycle events (register/"
        "unregister, pass start/finish, fault isolation, crash-respawn, "
        "plan shipping) to FILE, or to stderr when no FILE is given",
    )
    multi_parser.set_defaults(handler=_command_multi)

    stats_parser = subparsers.add_parser(
        "stats",
        help="pretty-print a metrics snapshot written by multi --metrics-out",
    )
    stats_parser.add_argument(
        "snapshot", help="metrics snapshot JSON file ('-' for stdin)"
    )
    stats_parser.set_defaults(handler=_command_stats)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the in-repo static-analysis suite (lock discipline, "
        "hot-loop purity, async blocking, pickle safety)",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the installed "
        "repro package)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text; sarif emits a SARIF 2.1.0 "
        "run for code-scanning upload)",
    )
    lint_parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of accepted findings to subtract "
        "(see scripts/lint_baseline.json)",
    )
    lint_parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write the current findings to FILE as a new baseline and exit 0",
    )
    lint_parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="also fail (exit 1) when the --baseline file contains stale "
        "fingerprints that no current finding matches — fixed violations "
        "must leave the baseline, or the dead suppression would silently "
        "swallow a future regression with the same fingerprint",
    )
    lint_parser.add_argument(
        "--fail-on",
        metavar="CODE,...",
        default="all",
        help="exit nonzero only for these finding codes "
        "(default: all — any finding fails the run)",
    )
    lint_parser.set_defaults(handler=_command_lint)

    return parser


def main(argv: Optional[list] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
