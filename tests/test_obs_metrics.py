"""The metrics registry: labels, histograms, concurrency, and exposition.

The registry's contract (``src/repro/obs/metrics.py``) is tested at three
levels:

* **semantics** — create-or-get families (one name, one kind), labeled
  counters/gauges, fixed-bucket histograms with snapshot-time percentile
  estimates, pull-style collectors, and the ``set_from_dict`` bridge that
  publishes the counting dataclasses;
* **concurrency** — N writer threads hammering one counter and one
  histogram while another thread snapshots continuously: every snapshot
  must be internally consistent (no torn bucket/count/sum reads) and the
  final totals must be exact;
* **exposition** — the Prometheus text output must satisfy the line
  validator (``repro.obs.validate``) that CI reuses, bucket-cumulative
  checks included, and the JSON snapshot must pretty-print after a JSON
  round trip (what ``repro stats`` does).
"""

import json
import threading

import pytest

from repro.obs import MetricsRegistry, format_snapshot
from repro.obs.validate import validate_prometheus_text


class TestFamilies:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("obs_ops_total", "operations")
        counter.inc()
        counter.inc(2, kind="a")
        counter.inc(3, kind="a")
        assert counter.value() == 1
        assert counter.value(kind="a") == 5
        assert counter.value(kind="missing") == 0

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("obs_ops_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("obs_depth")
        gauge.set(10, worker="0")
        gauge.inc(-3, worker="0")
        assert gauge.value(worker="0") == 7

    def test_same_name_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("obs_ops_total") is registry.counter("obs_ops_total")

    def test_redeclaring_a_name_with_another_kind_raises(self):
        registry = MetricsRegistry()
        registry.counter("obs_ops_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("obs_ops_total")

    def test_invalid_metric_name_raises(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            MetricsRegistry().counter("0bad-name")


class TestHistogram:
    def test_count_sum_and_bucket_placement(self):
        hist = MetricsRegistry().histogram("obs_lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(55.55)
        (sample,) = hist._snapshot_values_locked()
        # Cumulative, Prometheus-style: le=0.1 → 1, le=1 → 2, le=10 → 3, +Inf → 4.
        assert [b["count"] for b in sample["buckets"]] == [1, 2, 3, 4]

    def test_percentiles_interpolate_inside_the_covering_bucket(self):
        hist = MetricsRegistry().histogram("obs_lat", buckets=(1.0, 2.0))
        for _ in range(100):
            hist.observe(1.5)
        # All observations in (1, 2]: the median interpolates inside it.
        assert 1.0 < hist.percentile(0.5) <= 2.0
        assert hist.percentile(0.99) <= 2.0

    def test_percentiles_clamp_to_the_last_finite_bound(self):
        hist = MetricsRegistry().histogram("obs_lat", buckets=(1.0,))
        hist.observe(100.0)
        # The +Inf bucket cannot support an estimate beyond the last bound.
        assert hist.percentile(0.5) == 1.0

    def test_empty_series_percentile_is_zero(self):
        hist = MetricsRegistry().histogram("obs_lat")
        assert hist.percentile(0.5) == 0.0

    def test_snapshot_carries_p50_p95_p99(self):
        registry = MetricsRegistry()
        hist = registry.histogram("obs_lat", "latency", buckets=(1.0, 2.0))
        hist.observe(0.5, stage="route")
        snap = registry.snapshot()["obs_lat"]
        assert snap["kind"] == "histogram"
        (sample,) = snap["values"]
        assert sample["labels"] == {"stage": "route"}
        for key in ("p50", "p95", "p99", "count", "sum", "buckets"):
            assert key in sample


class TestCollectorsAndFolding:
    def test_collectors_refresh_values_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"passes": 0}
        registry.add_collector(
            lambda reg: reg.gauge("obs_passes").set(state["passes"])
        )
        state["passes"] = 7
        assert registry.snapshot()["obs_passes"]["values"][0]["value"] == 7
        state["passes"] = 9
        assert registry.snapshot()["obs_passes"]["values"][0]["value"] == 9

    def test_set_from_dict_takes_numeric_scalars_only(self):
        registry = MetricsRegistry()
        registry.set_from_dict(
            "obs_svc",
            {"passes": 3, "rate": 0.5, "name": "bib", "ok": True, "nested": {"x": 1}},
            worker="0",
        )
        snap = registry.snapshot()
        assert snap["obs_svc_passes"]["values"][0]["value"] == 3
        assert snap["obs_svc_rate"]["values"][0]["value"] == 0.5
        # Strings, bools, and nested structures are skipped, not mangled.
        assert "obs_svc_name" not in snap
        assert "obs_svc_ok" not in snap
        assert "obs_svc_nested" not in snap

    def test_register_metrics_publishes_cache_stats(self):
        from repro.service import QueryService

        service = QueryService(cache_size=4)
        registry = MetricsRegistry()
        service.register_metrics(registry)
        snap = registry.snapshot()
        assert snap["repro_plan_cache_size"]["values"][0]["value"] == 0
        assert snap["repro_plan_cache_hits"]["values"][0]["value"] == 0
        assert "repro_plan_cache_hit_rate" in snap
        assert snap["repro_service_passes_completed"]["values"][0]["value"] == 0


class TestConcurrency:
    def test_writers_and_snapshotter_no_torn_reads_exact_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("obs_ops_total", "operations")
        # 0.5 is exactly representable, so N accumulated observations sum
        # to exactly count * 0.5 — any torn bucket/sum/count read shows up
        # as an exact-arithmetic mismatch.
        hist = registry.histogram("obs_lat", "latency", buckets=(0.25, 1.0))
        threads, each = 8, 2000
        stop = threading.Event()
        problems = []

        def snapshotter():
            last_total = 0
            while not stop.is_set():
                snap = registry.snapshot()
                for sample in snap["obs_lat"]["values"]:
                    if sample["buckets"][-1]["count"] != sample["count"]:
                        problems.append("histogram +Inf bucket != count")
                    if sample["sum"] != sample["count"] * 0.5:
                        problems.append("histogram sum inconsistent with count")
                total = sum(
                    sample["value"] for sample in snap["obs_ops_total"]["values"]
                )
                if total < last_total:
                    problems.append("counter total went backwards")
                last_total = total

        def writer(i):
            for _ in range(each):
                counter.inc(1, thread=str(i))
                hist.observe(0.5)

        snap_thread = threading.Thread(target=snapshotter)
        snap_thread.start()
        writers = [threading.Thread(target=writer, args=(i,)) for i in range(threads)]
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        snap_thread.join()

        assert problems == []
        for i in range(threads):
            assert counter.value(thread=str(i)) == each
        assert hist.count() == threads * each
        assert hist.sum() == threads * each * 0.5


class TestExposition:
    @pytest.fixture
    def populated(self):
        registry = MetricsRegistry()
        counter = registry.counter("obs_ops_total", "operations served")
        counter.inc(5, kind="read")
        counter.inc(2, kind='wr"ite')  # label escaping must survive
        registry.gauge("obs_depth", "queue depth").set(3)
        hist = registry.histogram("obs_lat", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05, stage="route")
        hist.observe(5.0, stage="route")
        return registry

    def test_prometheus_text_passes_the_line_validator(self, populated):
        assert validate_prometheus_text(populated.to_prometheus()) == []

    def test_prometheus_text_golden_lines(self, populated):
        lines = populated.to_prometheus().splitlines()
        assert "# HELP obs_ops_total operations served" in lines
        assert "# TYPE obs_ops_total counter" in lines
        assert 'obs_ops_total{kind="read"} 5' in lines
        assert "# TYPE obs_lat histogram" in lines
        assert 'obs_lat_bucket{stage="route",le="0.1"} 1' in lines
        assert 'obs_lat_bucket{stage="route",le="+Inf"} 2' in lines
        assert 'obs_lat_count{stage="route"} 2' in lines

    def test_validator_flags_garbage_and_non_cumulative_buckets(self):
        assert validate_prometheus_text("this is !not! a metric line\n")
        broken = (
            "# TYPE obs_lat histogram\n"
            'obs_lat_bucket{le="0.1"} 5\n'
            'obs_lat_bucket{le="1"} 3\n'   # cumulative counts cannot drop
            'obs_lat_bucket{le="+Inf"} 5\n'
            "obs_lat_sum 1\n"
            "obs_lat_count 5\n"
        )
        assert validate_prometheus_text(broken)

    def test_snapshot_pretty_prints_after_json_round_trip(self, populated):
        snapshot = json.loads(json.dumps(populated.snapshot()))
        text = format_snapshot(snapshot)
        assert "obs_ops_total (counter) -- operations served" in text
        assert "{kind=read}  5" in text
        assert "count=2" in text and "p50=" in text
