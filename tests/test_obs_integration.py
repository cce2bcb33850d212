"""Observability wired through the service, pools, and worker processes.

The acceptance bar for the observability layer, end to end:

* with ``obs=None`` (the default), an instrumented service produces
  byte-identical output to the pre-observability code path;
* with metrics enabled, *one* registry snapshot describes the whole
  system — stage and pass latency histograms with percentiles, and the
  service/pool lifetime totals and plan-cache counters, each published
  exactly once from the dataclasses that count them — in JSON and in
  parseable Prometheus text;
* with tracing enabled, every stage span of a document carries the
  document's trace id: across ``ServicePool`` worker threads, and across
  ``ProcessServicePool`` pipes, where worker-side spans (``pass.*``)
  merge into the parent's sink under the same trace id as the parent's
  ``pool.shard`` — including across an injected worker crash-respawn,
  whose ``pool.respawn`` / re-``pool.ship`` spans join the crashed
  document's trace;
* lifecycle events (register, pass start/finish, faults, respawns,
  shipping) land in the structured log exactly once each.
"""

import pytest

from repro.bench.feeds import CrashingFeedSource
from repro.errors import WorkerCrashError
from repro.obs import (
    MemoryLogger,
    MemorySink,
    MetricsRegistry,
    Observability,
    Tracer,
)
from repro.obs.validate import validate_prometheus_text
from repro.service import ProcessServicePool, QueryService, ServicePool
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD, PAPER_Q3

TITLES_QUERY = "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"
PASS_STAGES = {"pass.parse", "pass.route", "pass.evaluate", "pass.emit"}
DURATIONS = {"repro_stage_duration_seconds", "repro_pass_duration_seconds"}


def full_obs():
    """A hub with every component live."""
    sink = MemorySink()
    return (
        Observability(
            metrics=MetricsRegistry(), tracer=Tracer(sink), logger=MemoryLogger()
        ),
        sink,
    )


class TestServiceObservability:
    def test_instrumented_output_is_byte_identical(self):
        plain = QueryService(PAPER_FIGURE1_DTD)
        plain.register(PAPER_Q3, key="q")
        expected = plain.run_pass(PAPER_DOCUMENT)["q"].output

        obs, _ = full_obs()
        observed = QueryService(PAPER_FIGURE1_DTD, obs=obs)
        observed.register(PAPER_Q3, key="q")
        assert observed.run_pass(PAPER_DOCUMENT)["q"].output == expected

    def test_one_snapshot_describes_the_whole_system(self):
        obs, _ = full_obs()
        service = QueryService(PAPER_FIGURE1_DTD, obs=obs)
        # What `multi --metrics-out` does where it builds the service.
        service.register_metrics(obs.metrics)
        service.register(PAPER_Q3, key="q")
        service.run_pass(PAPER_DOCUMENT)
        snap = obs.metrics.snapshot()

        # No lifetime number appears twice: the snapshot is one gauge per
        # scalar of the service summary and of the cache's, plus the two
        # duration histograms, and nothing else.
        summary = service.stats_summary()

        def gauges(prefix, values):
            return {f"{prefix}_{key}" for key, value in values.items()
                    if isinstance(value, (int, float))}

        assert set(snap) == (
            gauges("repro_service", summary)
            | gauges("repro_plan_cache", summary["plan_cache"])
            | DURATIONS
        )
        (passes,) = snap["repro_pass_duration_seconds"]["values"]
        assert passes["count"] == 1
        assert passes["sum"] == service.metrics.elapsed_seconds_total
        assert snap["repro_service_events_forwarded_total"]["values"][0]["value"] > 0
        assert (
            snap["repro_service_document_bytes_total"]["values"][0]["value"]
            == len(PAPER_DOCUMENT.encode("utf-8"))
        )
        stages = {
            v["labels"]["stage"]
            for v in snap["repro_stage_duration_seconds"]["values"]
        }
        assert stages == {"parse", "route", "evaluate", "emit"}
        for sample in snap["repro_stage_duration_seconds"]["values"]:
            assert sample["count"] == 1
            assert "p95" in sample
        assert snap["repro_service_passes_completed"]["values"][0]["value"] == 1
        assert snap["repro_plan_cache_misses"]["values"][0]["value"] == 1
        assert validate_prometheus_text(obs.metrics.to_prometheus()) == []

    def test_stage_spans_share_the_pass_trace(self):
        obs, sink = full_obs()
        service = QueryService(PAPER_FIGURE1_DTD, obs=obs)
        service.register(PAPER_Q3, key="q")
        service.run_pass(PAPER_DOCUMENT)

        spans = sink.spans
        by_name = {span["name"]: span for span in spans}
        assert set(by_name) == PASS_STAGES | {"pass"}
        assert len({span["trace_id"] for span in spans}) == 1
        pass_span = by_name["pass"]
        for name in PASS_STAGES:
            assert by_name[name]["parent_id"] == pass_span["span_id"]
        # Stage durations are bounded by the whole pass (each stage is
        # timed inside it), modulo clock granularity.
        assert by_name["pass"]["duration_s"] >= 0

    def test_lifecycle_events_are_logged_once_each(self):
        obs, _ = full_obs()
        service = QueryService(PAPER_FIGURE1_DTD, obs=obs)
        service.register(PAPER_Q3, key="q")
        service.run_pass(PAPER_DOCUMENT)
        service.unregister("q")

        log = obs.logger
        (register,) = log.find("service.register")
        assert register["key"] == "q" and register["from_cache"] is False
        assert len(log.find("pass.start")) == 1
        (finish,) = log.find("pass.finish")
        assert finish["results"] == 1
        (unregister,) = log.find("service.unregister")
        assert unregister["key"] == "q"

    def test_aborted_pass_logs_abort_not_finish(self):
        obs, _ = full_obs()
        service = QueryService(PAPER_FIGURE1_DTD, obs=obs)
        service.register(PAPER_Q3, key="q")
        with pytest.raises(Exception):
            service.run_pass("<bib><unclosed>")
        assert len(obs.logger.find("pass.abort")) == 1
        assert obs.logger.find("pass.finish") == []

    def test_service_lifetime_totals_fold_every_pass(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q")
        elapsed, pruned = 0.0, 0
        for outcome in service.serve([PAPER_DOCUMENT, PAPER_DOCUMENT]):
            elapsed += outcome.metrics.elapsed_seconds
            pruned += outcome.metrics.subtrees_pruned
        totals = service.metrics
        assert totals.elapsed_seconds_total == pytest.approx(elapsed)
        assert totals.subtrees_pruned_total == pruned
        assert totals.as_dict()["elapsed_seconds_total"] == pytest.approx(elapsed)
        assert "subtrees_pruned_total" in totals.as_dict()


def _check_stage_accounting(stage_seconds, elapsed_seconds):
    assert set(stage_seconds) == {"parse", "route", "evaluate", "emit"}
    assert all(seconds >= 0 for seconds in stage_seconds.values())
    assert stage_seconds["evaluate"] > 0
    assert sum(stage_seconds.values()) <= elapsed_seconds


class TestStageAccounting:
    """One dispatch loop, four stages, whichever component publishes them."""

    DOCUMENT = generate_bibliography(num_books=30, seed=5)

    def _pass(self, obs):
        service = QueryService(BIB_DTD_STRONG, obs=obs)
        service.register(TITLES_QUERY, key="t")
        service.run_pass(self.DOCUMENT)
        return service.metrics.last_pass

    def test_pass_metrics_carry_the_stages_without_a_hub(self):
        metrics = self._pass(None)
        _check_stage_accounting(metrics.stage_seconds, metrics.elapsed_seconds)
        assert metrics.as_dict()["stage_seconds"] == metrics.stage_seconds

    def test_metrics_only_hub(self):
        obs = Observability(metrics=MetricsRegistry())
        metrics = self._pass(obs)
        samples = obs.metrics.snapshot()["repro_stage_duration_seconds"]["values"]
        assert all(sample["count"] == 1 for sample in samples)
        stage_seconds = {s["labels"]["stage"]: s["sum"] for s in samples}
        assert len(stage_seconds) == len(samples)
        _check_stage_accounting(stage_seconds, metrics.elapsed_seconds)
        assert stage_seconds == metrics.stage_seconds

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_pool_metrics_only_hub(self, backend):
        """Histograms are the served PassMetrics; a process pool without a
        tracer runs no worker tracer (its replies carry no spans)."""
        obs = Observability(metrics=MetricsRegistry())
        shipped_spans = []
        if backend == "threads":
            pool = ServicePool(BIB_DTD_STRONG, workers=2, obs=obs)
        else:
            pool = ProcessServicePool(
                BIB_DTD_STRONG, workers=2, start_method="fork", obs=obs
            )
            merge = pool._merge_worker_spans

            def spy(spans):
                shipped_spans.extend(spans)
                merge(spans)

            pool._merge_worker_spans = spy
        try:
            pool.register(TITLES_QUERY, key="t")
            served = list(pool.serve([self.DOCUMENT, "<bib><broken>", self.DOCUMENT]))
        finally:
            if backend == "processes":
                pool.close()
        ok = [outcome for outcome in served if outcome.ok]
        assert len(ok) == 2
        assert shipped_spans == []
        snap = obs.metrics.snapshot()
        assert set(snap) == DURATIONS
        for sample in snap["repro_stage_duration_seconds"]["values"]:
            stage = sample["labels"]["stage"]
            assert sample["count"] == len(ok)
            assert sample["sum"] == pytest.approx(
                sum(outcome.metrics.stage_seconds[stage] for outcome in ok)
            )
        (passes,) = snap["repro_pass_duration_seconds"]["values"]
        assert passes["count"] == len(ok) == pool.metrics.passes_completed
        assert passes["sum"] == pytest.approx(
            sum(outcome.metrics.elapsed_seconds for outcome in ok)
        )

    def test_tracer_only_hub(self):
        sink = MemorySink()
        metrics = self._pass(Observability(tracer=Tracer(sink)))
        stage_spans = [s for s in sink.spans if s["name"].startswith("pass.")]
        stage_seconds = {s["name"][5:]: s["duration_s"] for s in stage_spans}
        assert len(stage_seconds) == len(stage_spans)
        (pass_span,) = [s for s in sink.spans if s["name"] == "pass"]
        assert pass_span["duration_s"] == metrics.elapsed_seconds
        _check_stage_accounting(stage_seconds, metrics.elapsed_seconds)

    def test_process_backend_forwarded_spans(self):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(sink))
        with ProcessServicePool(
            BIB_DTD_STRONG, workers=1, start_method="fork", obs=obs
        ) as pool:
            pool.register(TITLES_QUERY, key="t")
            (served,) = list(pool.serve([self.DOCUMENT]))
        assert served.ok
        stage_spans = [s for s in sink.spans if s["name"].startswith("pass.")]
        stage_seconds = {s["name"][5:]: s["duration_s"] for s in stage_spans}
        assert len(stage_seconds) == len(stage_spans)
        _check_stage_accounting(stage_seconds, served.metrics.elapsed_seconds)
        assert served.metrics.stage_seconds == stage_seconds


class TestThreadPoolObservability:
    def test_pool_spans_and_logs(self):
        obs, sink = full_obs()
        pool = ServicePool(PAPER_FIGURE1_DTD, workers=2, obs=obs)
        pool.register(PAPER_Q3, key="q")
        served = list(pool.serve([PAPER_DOCUMENT, PAPER_DOCUMENT, PAPER_DOCUMENT]))
        assert all(outcome.ok for outcome in served)

        spans = sink.spans
        shards = [s for s in spans if s["name"] == "pool.shard"]
        assert len(shards) == 3
        for shard in shards:
            # Every worker-thread pass span joins its document's trace.
            trace = [s for s in spans if s["trace_id"] == shard["trace_id"]]
            assert {s["name"] for s in trace} == PASS_STAGES | {"pass", "pool.shard"}
        # One mirrored registration logs once — at pool level, not per worker.
        assert len(obs.logger.find("pool.register")) == 1
        assert obs.logger.find("service.register") == []

    def test_pool_fault_is_logged_with_its_trace(self):
        obs, sink = full_obs()
        pool = ServicePool(PAPER_FIGURE1_DTD, workers=2, obs=obs)
        pool.register(PAPER_Q3, key="q")
        served = list(pool.serve(["<bib><broken>", PAPER_DOCUMENT]))
        assert sorted(outcome.ok for outcome in served) == [False, True]
        (fault,) = obs.logger.find("pool.fault")
        errored = [s for s in sink.spans
                   if s["name"] == "pool.shard" and s.get("outcome") == "error"]
        assert len(errored) == 1
        assert fault["trace_id"] == errored[0]["trace_id"]

    def test_pool_metrics_aggregate_new_totals(self):
        pool = ServicePool(PAPER_FIGURE1_DTD, workers=2)
        pool.register(PAPER_Q3, key="q")
        list(pool.serve([PAPER_DOCUMENT, PAPER_DOCUMENT]))
        totals = pool.metrics
        assert totals.elapsed_seconds_total > 0
        assert totals.subtrees_pruned_total >= 0
        assert "elapsed_seconds_total" in totals.as_dict()


class TestProcessPoolObservability:
    """The headline criterion: one merged trace across process pipes."""

    @pytest.fixture(scope="class")
    def served_run(self):
        documents = [
            generate_bibliography(num_books=4, seed=seed) for seed in (1, 2, 3)
        ]
        documents[1] = CrashingFeedSource(documents[1])
        obs, sink = full_obs()
        with ProcessServicePool(
            BIB_DTD_STRONG,
            workers=2,
            start_method="fork",
            obs=obs,
        ) as pool:
            pool.register(TITLES_QUERY, key="t")
            served = list(pool.serve(documents))
            metrics = pool.metrics
        return obs, sink.spans, served, metrics

    def test_worker_spans_merge_under_the_parent_trace(self, served_run):
        _, spans, served, _ = served_run
        ok = [o for o in served if o.ok]
        assert len(ok) == 2
        shards = {
            s["trace_id"]: s
            for s in spans
            if s["name"] == "pool.shard" and s.get("outcome") != "error"
        }
        assert len(shards) == 2
        for trace_id in shards:
            names = {s["name"] for s in spans if s["trace_id"] == trace_id}
            # Worker-side pass spans, recorded in another process, share
            # the trace id of the parent-side shard span.
            assert names == PASS_STAGES | {"pass", "pool.shard"}

    def test_crash_respawn_spans_join_the_crashed_documents_trace(self, served_run):
        obs, spans, served, _ = served_run
        (failure,) = [o for o in served if not o.ok]
        assert isinstance(failure.error, WorkerCrashError)
        (errored_shard,) = [
            s for s in spans
            if s["name"] == "pool.shard" and s.get("outcome") == "error"
        ]
        trace = [s for s in spans if s["trace_id"] == errored_shard["trace_id"]]
        names = sorted(s["name"] for s in trace)
        # The crashed document's trace: its failed shard, the respawn of
        # its worker, and the re-shipped plan — no pass spans (the worker
        # died mid-pass and its span buffer died with it).
        assert "pool.respawn" in names
        assert "pool.ship" in names
        assert not any(name.startswith("pass") for name in names)
        (fault,) = [
            e for e in obs.logger.find("pool.fault")
            if e.get("error") == "WorkerCrashError"
        ]
        assert fault["trace_id"] == errored_shard["trace_id"]
        (respawn,) = obs.logger.find("pool.respawn")
        assert respawn["trace_id"] == errored_shard["trace_id"]
        assert respawn["exitcode"] == 3

    def test_worker_stage_durations_fold_into_parent_histograms(self, served_run):
        obs, _, served, metrics = served_run
        snap = obs.metrics.snapshot()
        stages = {
            v["labels"]["stage"]: v
            for v in snap["repro_stage_duration_seconds"]["values"]
        }
        assert set(stages) == {"parse", "route", "evaluate", "emit"}
        ok_documents = sum(1 for o in served if o.ok)
        assert stages["evaluate"]["count"] == ok_documents
        (passes,) = snap["repro_pass_duration_seconds"]["values"]
        assert passes["count"] == ok_documents
        # The pool aggregate folds the shipped-home pass metrics, new
        # lifetime fields included.
        assert metrics.elapsed_seconds_total > 0
        assert metrics.documents_failed == 1

    def test_plan_shipping_is_logged(self, served_run):
        obs, _, _, metrics = served_run
        ships = obs.logger.find("pool.ship")
        # Initial fleet (2 workers x 1 query structure) plus the respawn
        # re-ship.  Shipping is per *structure*, so the logged key is the
        # structure key, identical across all three sends.
        assert len(ships) == metrics.ship_count == 3
        assert len({e["key"] for e in ships}) == 1
