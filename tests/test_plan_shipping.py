"""Serializable plan artifacts and plan-cache persistence.

Two properties keep plan shipping and warm-starting honest:

* a compiled plan that takes a pickle round-trip (directly, or through a
  :class:`PlanArtifact`, or through a cache snapshot on disk) evaluates
  **byte-identically** to the plan that never left the process — across
  the bib and XMark workloads;
* a warm-started cache serves those plans as hits without a single
  optimizer run (``misses == 0``), with the ``preloaded`` counter
  reporting what the snapshot spared.
"""

import pickle

import pytest

from repro.bench.fleets import alias_query
from repro.core.optimizer import OptimizerPipeline
from repro.engines.dom_engine import DomEngine
from repro.engines.flux_engine import FluxEngine
from repro.runtime.compiler import CompiledQueryPlan, compile_query
from repro.runtime.plan_cache import PlanArtifact, PlanCache, cache_key, structure_key
from repro.service import ProcessServicePool, QueryService
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.workloads.queries import get_query, queries_for_workload
from repro.workloads.xmark import generate_auction_site

WORKLOADS = {
    "bib": (BIB_DTD_STRONG, queries_for_workload("bib"),
            lambda: generate_bibliography(num_books=12, seed=42)),
    "xmark": (AUCTION_DTD, queries_for_workload("auction"),
              lambda: generate_auction_site(scale=0.1, seed=42)),
}


def _workload(name):
    dtd_text, specs, make_document = WORKLOADS[name]
    return dtd_text, specs, make_document()


class TestPlanPickleRoundTrips:
    @pytest.mark.parametrize("workload", ["bib", "xmark"])
    def test_round_tripped_plans_evaluate_byte_identically(self, workload):
        dtd_text, specs, document = _workload(workload)
        pipeline = OptimizerPipeline(dtd_text)
        for spec in specs:
            plan = compile_query(spec.xquery, pipeline=pipeline)
            restored = pickle.loads(pickle.dumps(plan))
            assert isinstance(restored, CompiledQueryPlan)
            assert restored.source == plan.source
            assert restored.pipeline_config == plan.pipeline_config

            # Evaluate the original and the round-tripped plan over the
            # same document through identical services; outputs must be
            # byte-identical.
            outputs = []
            for candidate in (plan, restored):
                service = QueryService(dtd_text)
                service.register_compiled(candidate, key="q")
                outputs.append(service.run_pass(document)["q"].output)
            assert outputs[0] == outputs[1], spec.key
            # And both must match a solo engine run of the query text.
            solo = FluxEngine(dtd_text).execute(spec.xquery, document).output
            assert outputs[1] == solo, spec.key

    def test_lowered_join_is_not_shipped_and_is_rebuilt_by_the_worker(self):
        query = get_query("AUC-A3").xquery
        document = generate_auction_site(scale=0.3, seed=7)
        entry = compile_query(query, pipeline=OptimizerPipeline(AUCTION_DTD))
        never_lowered = pickle.dumps(entry)
        assert any(lowered.joins for lowered in entry.plan.lowered().values())

        # The memo is derived data keyed by object identity: it stays behind.
        assert pickle.dumps(entry) == never_lowered
        restored = pickle.loads(never_lowered)
        assert restored.plan._lowered is None

        expected = DomEngine(AUCTION_DTD).execute(query, document).output
        service = QueryService(AUCTION_DTD)
        service.register_compiled(restored, key="q")
        result = service.run_pass(document)["q"]
        assert result.output == expected
        assert result.stats.extra["join_probes"] > 0
        with ProcessServicePool(AUCTION_DTD, workers=1) as pool:
            pool.register(query, key="q")
            (served,) = pool.serve([document])
            assert served.ok and served.results["q"].output == expected
            assert served.results["q"].stats.extra["join_probes"] > 0

    def test_alpha_renamed_joins_share_one_structure_key(self):
        query = get_query("AUC-A3").xquery
        pipeline = OptimizerPipeline(AUCTION_DTD)
        entries = [compile_query(alias_query(query, k), pipeline=pipeline) for k in (0, 1, 2)]
        for entry in entries:
            assert any(lowered.joins for lowered in entry.plan.lowered().values())
        assert len({entry.source for entry in entries}) == 3
        assert len({structure_key(entry) for entry in entries}) == 1

    @pytest.mark.parametrize("workload", ["bib", "xmark"])
    def test_artifact_key_is_the_cache_key(self, workload):
        dtd_text, specs, _ = _workload(workload)
        pipeline = OptimizerPipeline(dtd_text)
        plan = compile_query(specs[0].xquery, pipeline=pipeline)
        artifact = PlanArtifact.from_plan(plan)
        assert artifact.key == cache_key(
            plan.source, plan.dtd, plan.pipeline_config
        )
        restored = artifact.load_plan()
        assert restored.source == plan.source
        assert len(artifact.payload) > 0

    def test_artifact_rejects_foreign_payload(self):
        artifact = PlanArtifact(
            source="q", dtd_fingerprint="f", pipeline_config="c",
            payload=pickle.dumps({"not": "a plan"}),
        )
        with pytest.raises(TypeError):
            artifact.load_plan()


class TestRegisterCompiled:
    def test_registers_without_touching_cache_or_pipeline(self):
        dtd_text, specs, document = _workload("bib")
        plan = compile_query(specs[0].xquery, pipeline=OptimizerPipeline(dtd_text))
        service = QueryService(dtd_text)
        registration = service.register_compiled(plan, key="shipped")
        assert registration.key == "shipped"
        assert service.plan_cache.stats.misses == 0
        assert service.plan_cache.stats.hits == 0
        assert len(service.plan_cache) == 0
        assert service.run_pass(document)["shipped"].output

    def test_rejects_plan_compiled_under_another_schema(self):
        bib_plan = compile_query(
            queries_for_workload("bib")[0].xquery,
            pipeline=OptimizerPipeline(BIB_DTD_STRONG),
        )
        auction_service = QueryService(AUCTION_DTD)
        with pytest.raises(ValueError, match="DTD"):
            auction_service.register_compiled(bib_plan, key="wrong")

    def test_replacement_counts_like_register(self):
        dtd_text, specs, _ = _workload("bib")
        pipeline = OptimizerPipeline(dtd_text)
        plan_a = compile_query(specs[0].xquery, pipeline=pipeline)
        plan_b = compile_query(specs[1].xquery, pipeline=pipeline)
        service = QueryService(dtd_text)
        service.register_compiled(plan_a, key="q")
        service.register_compiled(plan_b, key="q")
        assert service.metrics.queries_registered == 2
        assert service.metrics.queries_replaced == 1
        assert len(service) == 1


class TestCacheSnapshots:
    def _compiled_cache(self, count=3):
        cache = PlanCache(capacity=16)
        pipeline = OptimizerPipeline(BIB_DTD_STRONG)
        specs = queries_for_workload("bib")[:count]
        for spec in specs:
            cache.get_or_compile(spec.xquery, pipeline)
        return cache, specs

    def test_dump_load_round_trip_warm_starts(self, tmp_path):
        cache, specs = self._compiled_cache()
        path = str(tmp_path / "plans.bin")
        assert cache.dump(path) == len(specs)

        fresh = PlanCache(capacity=16)
        assert fresh.load(path) == len(specs)
        assert fresh.stats.preloaded == len(specs)
        assert len(fresh) == len(specs)
        # Every query is now a hit: zero compilations after a warm start.
        pipeline = OptimizerPipeline(BIB_DTD_STRONG)
        for spec in specs:
            plan, from_cache = fresh.get_or_compile(spec.xquery, pipeline)
            assert from_cache
        assert fresh.stats.misses == 0
        assert fresh.stats.hits == len(specs)

    def test_loaded_plans_evaluate_byte_identically(self, tmp_path):
        cache, specs = self._compiled_cache(count=2)
        path = str(tmp_path / "plans.bin")
        cache.dump(path)
        fresh = PlanCache(capacity=16)
        fresh.load(path)
        document = generate_bibliography(num_books=10, seed=5)
        for spec in specs:
            service = QueryService(BIB_DTD_STRONG, plan_cache=fresh)
            service.register(spec.xquery, key="q")
            output = service.run_pass(document)["q"].output
            solo = FluxEngine(BIB_DTD_STRONG).execute(spec.xquery, document).output
            assert output == solo, spec.key
        assert fresh.stats.misses == 0

    def test_load_respects_capacity_keeping_most_recent(self, tmp_path):
        cache, specs = self._compiled_cache(count=3)
        path = str(tmp_path / "plans.bin")
        cache.dump(path)
        tiny = PlanCache(capacity=2)
        assert tiny.load(path) == 3
        assert len(tiny) == 2
        # The dump is LRU-first, so the two most recently used plans of
        # the dumping cache survive in the loader.
        pipeline = OptimizerPipeline(BIB_DTD_STRONG)
        plan, from_cache = tiny.get_or_compile(specs[-1].xquery, pipeline)
        assert from_cache
        assert tiny.stats.evictions == 1

    def test_dump_is_atomic_no_temp_left_behind(self, tmp_path):
        cache, _ = self._compiled_cache(count=1)
        path = tmp_path / "plans.bin"
        cache.dump(str(path))
        assert path.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "plans.bin"]
        assert leftovers == []

    def test_load_rejects_garbage_and_wrong_format(self, tmp_path):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"this is not a snapshot")
        cache = PlanCache()
        with pytest.raises(ValueError):
            cache.load(str(garbage))

        wrong = tmp_path / "wrong.bin"
        wrong.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a plan-cache snapshot"):
            cache.load(str(wrong))

        versioned = tmp_path / "versioned.bin"
        versioned.write_bytes(
            pickle.dumps(
                {"format": PlanCache.SNAPSHOT_FORMAT, "version": 99,
                 "artifacts": []}
            )
        )
        with pytest.raises(ValueError, match="version"):
            cache.load(str(versioned))
        assert len(cache) == 0

    def test_torn_plan_payload_is_a_value_error(self, tmp_path):
        # The error contract is ValueError even when the snapshot envelope
        # is fine but a plan payload inside it is torn (or from a build
        # whose classes moved): callers like the CLI catch ValueError, not
        # raw pickle internals.
        cache, _ = self._compiled_cache(count=1)
        artifacts = cache.artifacts()
        torn = PlanArtifact(
            source=artifacts[0].source,
            dtd_fingerprint=artifacts[0].dtd_fingerprint,
            pipeline_config=artifacts[0].pipeline_config,
            payload=artifacts[0].payload[: len(artifacts[0].payload) // 2],
        )
        path = tmp_path / "torn.bin"
        path.write_bytes(
            pickle.dumps(
                {"format": PlanCache.SNAPSHOT_FORMAT,
                 "version": PlanCache.SNAPSHOT_VERSION,
                 "artifacts": [torn]}
            )
        )
        with pytest.raises(ValueError, match="failed to load"):
            PlanCache().load(str(path))

    def test_missing_file_is_an_error_not_an_empty_cache(self, tmp_path):
        cache = PlanCache()
        with pytest.raises(FileNotFoundError):
            cache.load(str(tmp_path / "never-written.bin"))


class TestSnapshotStructureSharing:
    """Version-2 snapshots write one artifact per structure, not per key.

    A fleet of alias registrations interns to one canonical plan in the
    cache; the snapshot must carry that plan exactly once (unique
    artifacts plus ``entries`` alias records), and a load must restore the
    sharing — alias keys hitting the *same* plan object — rather than
    inflating the file and the loaded cache with N copies.
    """

    ALIASES = 4

    def _interned_cache(self):
        cache = PlanCache(capacity=16)
        pipeline = OptimizerPipeline(BIB_DTD_STRONG)
        base = queries_for_workload("bib")[0].xquery
        texts = [alias_query(base, variant) for variant in range(self.ALIASES)]
        for text in texts:
            cache.get_or_compile(text, pipeline)
        assert cache.stats.interned == self.ALIASES - 1
        return cache, pipeline, texts

    def test_dump_writes_shared_plans_exactly_once(self, tmp_path):
        cache, _, texts = self._interned_cache()
        path = str(tmp_path / "plans.bin")
        # dump() reports *artifacts written*: one for four alias entries.
        assert cache.dump(path) == 1
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        assert snapshot["version"] == PlanCache.SNAPSHOT_VERSION
        assert len(snapshot["artifacts"]) == 1
        assert len(snapshot["entries"]) == len(texts)
        assert {index for _, index in snapshot["entries"]} == {0}

    def test_load_restores_the_sharing(self, tmp_path):
        cache, pipeline, texts = self._interned_cache()
        path = str(tmp_path / "plans.bin")
        cache.dump(path)
        fresh = PlanCache(capacity=16)
        assert fresh.load(path) == len(texts)
        assert fresh.stats.preloaded == len(texts)
        assert len(fresh) == len(texts)
        assert fresh.structure_count() == 1
        plans = []
        for text in texts:
            plan, from_cache = fresh.get_or_compile(text, pipeline)
            assert from_cache
            plans.append(plan)
        # Every alias key answers with the same object — the sharing took
        # the disk round-trip, it was not re-established by interning here.
        assert all(plan is plans[0] for plan in plans)
        assert fresh.stats.interned == 0
        assert fresh.stats.misses == 0

    def test_loaded_alias_plans_evaluate_byte_identically(self, tmp_path):
        cache, _, texts = self._interned_cache()
        path = str(tmp_path / "plans.bin")
        cache.dump(path)
        fresh = PlanCache(capacity=16)
        fresh.load(path)
        document = generate_bibliography(num_books=8, seed=9)
        solo = FluxEngine(BIB_DTD_STRONG).execute(texts[0], document).output
        for text in texts:
            service = QueryService(BIB_DTD_STRONG, plan_cache=fresh)
            service.register(text, key="q")
            assert service.run_pass(document)["q"].output == solo
        assert fresh.stats.misses == 0

    def test_version_1_snapshots_still_load(self, tmp_path):
        # A v1 snapshot has artifacts only — one key each, no alias
        # records.  Back-compat: it loads, every artifact on its own key.
        cache, _, texts = self._interned_cache()
        artifacts = cache.artifacts()
        path = tmp_path / "v1.bin"
        path.write_bytes(
            pickle.dumps(
                {"format": PlanCache.SNAPSHOT_FORMAT, "version": 1,
                 "artifacts": [artifacts[0]]}
            )
        )
        fresh = PlanCache()
        assert fresh.load(str(path)) == 1
        assert len(fresh) == 1
        assert fresh.structure_count() == 1
