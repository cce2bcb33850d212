"""The traced run: where one op's time goes, layer by layer, measured from outside.

Two kinds of span are recorded per op, in memory, and written out at exit:

* the real path's public calls (``register``/``compile`` in set-up;
  ``open_pass``, each ``feed``, ``finish`` or ``execute`` in an op);
* a stage-isolation replay of the same document, each stage timed alone on
  the materialized output of the stage before it: parse, validate, route,
  dispatch, then XSAX, evaluator and serializer per plan structure.

A layer's self time is its span minus its children; the evaluator's
children are its XSAX and serializer replays.  Nothing here feeds the
end-to-end numbers — those come from ``worker.measure`` with tracing off.
"""

from __future__ import annotations

import gc
import io
import json
import statistics
import time
import xml.parsers.expat
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro import DomEngine, FluxEngine, OptimizerPipeline, PlanCache, parse_xquery
from repro.dtd.validator import StreamingValidator
from repro.runtime.compiler import CompiledQueryPlan, QueryCompiler, compile_query
from repro.runtime.evaluator import StreamedEvaluator
from repro.runtime.plan_cache import structure_key
from repro.runtime.stats import RuntimeStats
from repro.runtime.xsax import XSAXReader
from repro.service.dispatcher import PlanProfile, SharedDispatcher, SharedProjectionIndex
from repro.service.metrics import PassMetrics
from repro.xmlstream.parser import StreamingXMLParser, parse_events
from repro.xmlstream.serializer import serialize_events
from repro.xmlstream.tree import build_tree
from repro.xquery.ast import DOCUMENT_VARIABLE
from repro.xquery.evaluator import TreeEvaluator, make_document_node

from workloads import FleetProgram, Oracle, SoloProgram, Workload

OUT_DIR = Path(__file__).resolve().parent / "out"

#: What ``QueryService.run_pass`` reads per ``feed`` and batches per session.
READ_CHUNK = 1 << 16
DISPATCH_CHUNK = 256

#: Untraced runs of each traced op; their median is what the spans are compared with.
UNTRACED_RUNS = 3


class Tracer:
    """Spans ``{name, start, end, parent, op_id}`` kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    @contextmanager
    def span(self, name: str, op_id: Optional[int], parent: Optional[int] = None) -> Iterator[int]:
        index = len(self.spans)
        record = {"name": name, "op_id": op_id, "parent": parent, "start": time.perf_counter()}
        self.spans.append(record)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()

    def seconds(self) -> Dict[tuple, float]:
        """Total duration by ``(name, op_id)``."""
        totals: Dict[tuple, float] = {}
        for s in self.spans:
            key = (s["name"], s["op_id"])
            totals[key] = totals.get(key, 0.0) + s["end"] - s["start"]
        return totals


@dataclass
class Structure:
    """One distinct plan of the workload and the registrations it answers."""

    entry: CompiledQueryPlan
    keys: List[str]


def read_chunks(document: str) -> Iterator[str]:
    """``document`` in the reads ``QueryService.run_pass`` makes of a file."""
    reader = io.StringIO(document)
    while True:
        chunk = reader.read(READ_CHUNK)
        if not chunk:
            return
        yield chunk


class _Recorder:
    """Stands in for a session: keeps the chunks the dispatcher routes to it."""

    def __init__(self) -> None:
        self.chunks: List[list] = []

    def feed(self, chunk: list) -> None:
        self.chunks.append(chunk)


# ------------------------------------------------------------ the real path


def traced_setup(tracer: Tracer, workload: Workload, fleet):
    """Set the program up as ``build_program`` does, one span per query."""
    with tracer.span("setup", None) as parent:
        if workload.solo:
            program = SoloProgram(workload, ())
            for query in fleet:
                with tracer.span("engine.compile", None, parent):
                    compiled = program.engine.compile(query.text)
                program.compiled.append((query.key, compiled))
        else:
            program = FleetProgram(workload, ())
            for query in fleet:
                with tracer.span("service.register", None, parent):
                    program.service.register(query.text, key=query.key)
    return program


def traced_op(tracer: Tracer, program, document: str, op_id: int):
    """One op through the public calls ``program.run`` makes, each in a span."""
    with tracer.span("op", op_id) as parent:
        if isinstance(program, SoloProgram):
            results = {}
            for key, compiled in program.compiled:
                with tracer.span("engine.execute", op_id, parent):
                    results[key] = compiled.execute(document)
            return results
        with tracer.span("session.open", op_id, parent):
            shared_pass = program.service.open_pass()
        try:
            for chunk in read_chunks(document):
                with tracer.span("session.feed", op_id, parent):
                    shared_pass.feed(chunk)
            with tracer.span("session.finish", op_id, parent):
                return shared_pass.finish()
        except BaseException:
            shared_pass.abort()
            raise


def structures_of(program) -> List[Structure]:
    """The program's distinct plans, in the order a shared pass groups them."""
    if isinstance(program, SoloProgram):
        return [Structure(compiled.entry, [key]) for key, compiled in program.compiled]
    groups: Dict[int, Structure] = {}
    for key, registration in program.service.registrations.items():
        group = groups.get(id(registration.structure))
        if group is None:
            groups[id(registration.structure)] = Structure(registration.structure.entry, [key])
        else:
            group.keys.append(key)
    return list(groups.values())


# ------------------------------------------------------- stage-isolation replay


def replay(tracer, op_id, program, structures, document, results) -> Dict[str, float]:
    """Time every stage alone over ``document``; return the op's counts.

    Raises ``AssertionError`` when a replayed evaluator's output differs
    from what the real path returned for that structure.
    """
    counts = dict.fromkeys(
        (
            "parsed_events", "parsed_bytes", "doc_events", "forwarded", "pruned", "chunks",
            "routed", "delivered", "onfirst", "consumed", "buffered_nodes", "peak_bytes",
            "out_bytes",
        ),
        0,
    )
    doc_bytes = len(document.encode("utf-8"))
    with tracer.span("replay", op_id) as parent:
        if isinstance(program, SoloProgram):
            dtd = program.engine.dtd
            for structure in structures:
                with tracer.span("xmlstream.parser", op_id, parent):
                    events = list(parse_events(document))
                counts["parsed_events"] += len(events)
                counts["parsed_bytes"] += doc_bytes
                _replay_structure(
                    tracer, op_id, parent, structure, events, dtd, True, results, counts
                )
            counts["doc_events"] = len(events)
            return counts

        dtd = program.service.dtd
        with tracer.span("xmlstream.parser", op_id, parent):
            parser = StreamingXMLParser.incremental()
            events = []
            for chunk in read_chunks(document):
                events.extend(parser.feed(chunk))
            events.extend(parser.close())
        counts["parsed_events"] = counts["doc_events"] = len(events)
        counts["parsed_bytes"] = doc_bytes

        with tracer.span("dtd.validator", op_id, parent):
            feed = StreamingValidator(dtd).feed
            for event in events:
                feed(event)

        profiles = [PlanProfile(s.entry) for s in structures]

        def new_index() -> SharedProjectionIndex:
            return SharedProjectionIndex(
                profiles, PassMetrics(), keys=[s.keys for s in structures]
            )

        index = new_index()
        with tracer.span("service.route", op_id, parent):
            route = index.route
            for event in events:
                route(event)
        counts["forwarded"] = sum(index.per_group_forwarded())
        counts["pruned"] = index.metrics.events_pruned

        recorders = [_Recorder() for _ in structures]
        dispatcher = SharedDispatcher(new_index(), recorders, chunk_size=DISPATCH_CHUNK)
        with tracer.span("service.dispatch", op_id, parent):
            dispatcher.dispatch(events)
            dispatcher.flush()
        counts["chunks"] = sum(len(r.chunks) for r in recorders)

        for structure, recorder in zip(structures, recorders):
            routed = list(chain.from_iterable(recorder.chunks))
            _replay_structure(
                tracer, op_id, parent, structure, routed, dtd, False, results, counts
            )
    return counts


def _replay_structure(tracer, op_id, parent, structure, events, dtd, validate, results, counts):
    """Evaluator, then its XSAX and serializer shares, over one plan's events."""
    plan = structure.entry.plan
    stats = RuntimeStats()
    sink = io.StringIO()
    with tracer.span("runtime.evaluator", op_id, parent) as evaluator:
        StreamedEvaluator(plan, dtd, validate=validate).run(iter(events), sink, stats)
    output = sink.getvalue()
    expected = results[structure.keys[0]].output
    if output != expected:
        raise AssertionError(
            f"replayed evaluator output of {structure.keys[0]} differs from the "
            f"end-to-end output ({len(output)} vs {len(expected)} characters)"
        )
    # A plan may stop early (BIB-Q6 is statically empty): XSAX is charged
    # only for the events the evaluator pulled.
    with tracer.span("runtime.xsax", op_id, evaluator):
        reader = XSAXReader(
            iter(events), dtd, plan.conditions, validate=validate, stats=RuntimeStats()
        )
        for _ in islice(reader, stats.events_processed):
            pass
    # The output may be a sequence of roots, or empty: wrap it to parse it.
    out_events = list(parse_events(f"<o>{output}</o>", keep_whitespace=True))[2:-2]
    with tracer.span("xmlstream.serializer", op_id, evaluator):
        serialize_events(out_events)
    counts["routed"] += len(events)
    counts["delivered"] += stats.events_processed
    counts["onfirst"] += stats.onfirst_events
    counts["consumed"] += stats.events_processed - stats.onfirst_events
    counts["buffered_nodes"] += stats.buffered_nodes
    counts["peak_bytes"] = max(counts["peak_bytes"], stats.peak_buffer_bytes)
    counts["out_bytes"] += len(output.encode("utf-8"))


# ------------------------------------------------------------------ yardsticks


def yardsticks(tracer, op_id, workload, solo_engine, dom, parsed_bases, document):
    """External references on the same document: expat, DOM, the tree evaluator."""
    counts = {"expat_callbacks": 0, "dom_peak_bytes": 0}

    def callback(*_):
        counts["expat_callbacks"] += 1

    expat = xml.parsers.expat.ParserCreate()
    expat.StartElementHandler = expat.EndElementHandler = expat.CharacterDataHandler = callback
    data = document.encode("utf-8")
    with tracer.span("yardstick.expat", op_id):
        expat.Parse(data, True)

    for base in workload.bases:
        with tracer.span("yardstick.flux_solo", op_id):
            solo_engine.compile(base).execute(document)
        with tracer.span("yardstick.dom", op_id):
            result = dom.execute(base, document)
        counts["dom_peak_bytes"] = max(counts["dom_peak_bytes"], result.peak_buffer_bytes)

    events = list(parse_events(document))
    with tracer.span("xmlstream.tree.build", op_id):
        root = build_tree(iter(events))
    for expr in parsed_bases:
        bindings = {DOCUMENT_VARIABLE: make_document_node(root)}
        with tracer.span("xquery.evaluator", op_id):
            TreeEvaluator(bindings).evaluate(expr)
    return counts


def setup_layers(workload: Workload, dtd) -> Dict[str, float]:
    """Per-query cost of each step behind ``register``/``compile``, timed alone."""
    clock = time.perf_counter
    pipeline = OptimizerPipeline(dtd)
    rows = {"parse": [], "optimize": [], "compile": [], "structure_key": []}
    for base in workload.bases:
        for _ in range(5):
            began = clock()
            parsed = parse_xquery(base)
            rows["parse"].append(clock() - began)
            began = clock()
            optimized = pipeline.compile(parsed)
            rows["optimize"].append(clock() - began)
            began = clock()
            QueryCompiler(dtd).compile(optimized.flux)
            rows["compile"].append(clock() - began)
            entry = compile_query(base, pipeline=pipeline)
            began = clock()
            structure_key(entry)  # memoized on the entry: only the first call computes
            rows["structure_key"].append(clock() - began)
    cache = PlanCache()
    for base in workload.bases:
        cache.get_or_compile(base, pipeline)
    hits = 2000
    began = clock()
    for i in range(hits):
        cache.get_or_compile(workload.bases[i % len(workload.bases)], pipeline)
    hit_s = (clock() - began) / hits
    return {
        "xquery_parser.ms_per_query": statistics.median(rows["parse"]) * 1e3,
        "optimizer.ms_per_query": statistics.median(rows["optimize"]) * 1e3,
        "compiler.ms_per_query": statistics.median(rows["compile"]) * 1e3,
        "plan_cache.structure_key_us": statistics.median(rows["structure_key"]) * 1e6,
        "plan_cache.hit_us": hit_s * 1e6,
    }


# ------------------------------------------------------------------ the run


def trace(
    workload: Workload,
    seed: int,
    seconds: float,
    max_ops: Optional[int] = None,
    out_dir: Path = OUT_DIR,
) -> Dict[str, object]:
    """Run traced ops in whole cycles over the documents; summarise per layer.

    Whole cycles make every count a median over the same documents, so
    counts repeat exactly however many cycles fit into ``seconds``.
    """
    clock = time.perf_counter
    tracer = Tracer()
    fleet = workload.fleet()
    documents = workload.make_documents(seed)
    program = traced_setup(tracer, workload, fleet)
    for i in range(workload.warmup_ops):
        program.run(documents[i % len(documents)])
    structures = structures_of(program)
    oracle = Oracle(workload, fleet, seed)
    oracle.compute(documents)
    owner = program.engine if workload.solo else program.service
    solo_engine = owner if workload.solo else FluxEngine(workload.dtd)
    dom = DomEngine(workload.dtd)
    parsed_bases = [parse_xquery(base) for base in workload.bases]

    rows: List[Dict[str, float]] = []
    failed = 0
    began = clock()
    while True:
        op_id = len(rows)
        if max_ops is not None:
            if op_id >= max_ops:
                break
        elif op_id % len(documents) == 0 and op_id and clock() - began >= seconds / 2:
            break
        index = op_id % len(documents)
        document = documents[index]
        # Start every op from a collected heap, so that the garbage of the
        # previous op's yardsticks is not collected inside this op's spans.
        gc.collect()
        results = traced_op(tracer, program, document, op_id)
        untraced = []
        for _ in range(UNTRACED_RUNS):
            op_began = clock()
            program.run(document)
            untraced.append(clock() - op_began)
        untraced_s = statistics.median(untraced)
        if not oracle.agrees(index, oracle.observe(results)):
            failed += 1
        counts = replay(tracer, op_id, program, structures, document, results)
        counts.update(yardsticks(tracer, op_id, workload, solo_engine, dom, parsed_bases, document))
        counts["untraced_s"] = untraced_s
        counts["results"] = len(results)
        rows.append(counts)

    totals = tracer.seconds()
    metrics, shares = summarise(totals, rows, len(structures))
    metrics.update(setup_layers(workload, owner.dtd))
    metrics["plan_cache.interned"] = owner.plan_cache.structure_count()
    setup_span = "engine.compile" if workload.solo else "service.register"
    metrics["service.register_ms_per_query"] = totals[setup_span, None] * 1e3 / len(fleet)

    slowest = max(shares, key=shares.get)
    problems = []
    if failed:
        problems.append(f"{failed} traced ops disagree with the DomEngine oracle")
    coverage = metrics["trace.coverage_share"]
    if coverage < workload.min_coverage:
        problems.append(
            f"trace.coverage_share {coverage:.3f} < {workload.min_coverage}: the stage replay is "
            f"missing a layer; session.unattributed_s = {metrics['session.unattributed_s']:.6f} s"
        )

    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace_{workload.name}.json"
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload.name, "seed": seed, "spans": tracer.spans, "counts": rows},
            handle,
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": len(rows),
        "failed": failed,
        "problems": problems,
        "slowest_layer": slowest,
        "self_shares": shares,
        "trace_file": str(trace_file),
        "metrics": metrics,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarise(totals: Dict[tuple, float], rows: Sequence[Dict[str, float]], groups: int):
    """Medians over ops of each layer's per-op numbers, and self-time shares.

    ``totals`` is ``Tracer.seconds()``: span time by ``(name, op_id)``.
    """
    per_op: Dict[str, List[float]] = {}

    def put(name: str, value: float) -> None:
        per_op.setdefault(name, []).append(value)

    for op_id, c in enumerate(rows):
        s = {
            name: totals.get((name, op_id), 0.0)
            for name in (
                "op", "xmlstream.parser", "dtd.validator", "service.route", "service.dispatch",
                "runtime.xsax", "runtime.evaluator", "xmlstream.serializer", "session.open",
                "session.feed", "session.finish", "yardstick.expat", "yardstick.flux_solo",
                "yardstick.dom", "xmlstream.tree.build", "xquery.evaluator",
            )
        }
        parser_s = s["xmlstream.parser"]
        dispatch_s = max(0.0, s["service.dispatch"] - s["service.route"])
        evaluator_s = s["runtime.evaluator"]
        stages_s = parser_s + s["dtd.validator"] + s["service.route"] + dispatch_s + evaluator_s
        parser_rate = _ratio(c["parsed_events"], parser_s)
        expat_rate = _ratio(c["expat_callbacks"], s["yardstick.expat"])

        put("parser.events", c["parsed_events"])
        put("parser.busy_s", parser_s)
        put("parser.events_per_s", parser_rate)
        put("parser.mb_per_s", _ratio(c["parsed_bytes"] / 1e6, parser_s))
        put("parser.expat_events_per_s", expat_rate)
        put("parser.expat_ratio", _ratio(expat_rate, parser_rate))
        put("validator.busy_s", s["dtd.validator"])
        put("validator.events_per_s", _ratio(c["doc_events"], s["dtd.validator"]))
        put("route.busy_s", s["service.route"])
        put("route.events_per_s", _ratio(c["doc_events"], s["service.route"]))
        put("route.forwarded_share", _ratio(c["forwarded"], c["doc_events"] * groups))
        put("route.pruned_events", c["pruned"])
        put("dispatch.busy_s", dispatch_s)
        put("dispatch.chunks", c["chunks"])
        put("xsax.busy_s", s["runtime.xsax"])
        put("xsax.events_per_s", _ratio(c["delivered"], s["runtime.xsax"]))
        put("xsax.onfirst_events", c["onfirst"])
        put("evaluator.busy_s", evaluator_s)
        put("evaluator.self_s", evaluator_s - s["runtime.xsax"] - s["xmlstream.serializer"])
        put("evaluator.events_per_s", _ratio(c["routed"], evaluator_s))
        put("evaluator.consumed_share", _ratio(c["consumed"], c["routed"]))
        put("evaluator.buffered_nodes", c["buffered_nodes"])
        put("buffers.peak_bytes", c["peak_bytes"])
        put("tree.build_s", s["xmlstream.tree.build"])
        put("xquery_eval.busy_s", s["xquery.evaluator"])
        put("serializer.busy_s", s["xmlstream.serializer"])
        put("serializer.out_bytes", c["out_bytes"])
        put("serializer.out_mb_per_s", _ratio(c["out_bytes"] / 1e6, s["xmlstream.serializer"]))
        put("session.open_ms", s["session.open"] * 1e3)
        put("session.feed_s", s["session.feed"])
        put("session.finish_ms", s["session.finish"] * 1e3)
        put("session.results", c["results"])
        put("session.unattributed_s", c["untraced_s"] - stages_s)
        put("engines.flux_solo_s", s["yardstick.flux_solo"])
        put("engines.dom_s", s["yardstick.dom"])
        put("engines.dom_ratio", _ratio(s["yardstick.flux_solo"], s["yardstick.dom"]))
        put("engines.dom_peak_buffer_bytes", c["dom_peak_bytes"])
        put("trace.coverage_share", _ratio(stages_s, c["untraced_s"]))
        put("trace.overhead_share", _ratio(s["op"], c["untraced_s"]) - 1.0)
        put("_untraced_s", c["untraced_s"])

    metrics = {name: statistics.median(values) for name, values in per_op.items()}
    untraced_s = metrics.pop("_untraced_s")
    self_seconds = {
        "xmlstream.parser": metrics["parser.busy_s"],
        "dtd.validator": metrics["validator.busy_s"],
        "service.dispatcher": metrics["route.busy_s"] + metrics["dispatch.busy_s"],
        "runtime.xsax": metrics["xsax.busy_s"],
        "runtime.evaluator": metrics["evaluator.self_s"],
        "xmlstream.serializer": metrics["serializer.busy_s"],
        "service.session": metrics["session.unattributed_s"],
    }
    shares = {layer: _ratio(value, untraced_s) for layer, value in self_seconds.items()}
    return metrics, shares
