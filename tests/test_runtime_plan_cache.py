"""Plan cache: hits, misses, DTD-fingerprint invalidation, eviction, stats,
structural interning before the optimizer, and the structure key itself.

The cache lives in ``repro.runtime`` and is shared by the FluxEngine and the
multi-query service; ``repro.service.plan_cache`` re-exports it."""

import dataclasses
import functools
import hashlib
import pickle

import pytest

from repro.bench.fleets import alias_query, make_fleet, run_shared, run_solo
from repro.core.optimizer import OptimizerPipeline
from repro.dtd.parser import parse_dtd
from repro.runtime.compiler import CompiledQueryPlan, QueryCompiler, compile_query
from repro.runtime.plan_cache import (
    NO_DTD_FINGERPRINT,
    PlanArtifact,
    PlanCache,
    _canon_value,
    cache_key,
    dtd_fingerprint,
    structure_key,
)
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG, BIB_DTD_WEAK
from repro.workloads.queries import get_query, queries_for_workload
from repro.workloads.xmark import generate_auction_site
from repro.xquery.ast import ForExpr, LetExpr, VarRef

from tests.conftest import PAPER_FIGURE1_DTD, PAPER_WEAK_DTD, PAPER_Q3


@pytest.fixture
def strong_pipeline():
    return OptimizerPipeline(parse_dtd(PAPER_FIGURE1_DTD))


@pytest.fixture
def weak_pipeline():
    return OptimizerPipeline(parse_dtd(PAPER_WEAK_DTD))


class TestDtdFingerprint:
    def test_equal_dtds_share_a_fingerprint(self):
        assert dtd_fingerprint(parse_dtd(PAPER_FIGURE1_DTD)) == dtd_fingerprint(
            parse_dtd(PAPER_FIGURE1_DTD)
        )

    def test_different_dtds_differ(self):
        assert dtd_fingerprint(parse_dtd(PAPER_FIGURE1_DTD)) != dtd_fingerprint(
            parse_dtd(PAPER_WEAK_DTD)
        )

    def test_declaration_order_is_irrelevant(self):
        reordered = "\n".join(reversed(PAPER_FIGURE1_DTD.strip().splitlines()))
        # Same declarations, same root (explicitly the unique non-child).
        assert dtd_fingerprint(parse_dtd(PAPER_FIGURE1_DTD)) == dtd_fingerprint(
            parse_dtd(reordered)
        )

    def test_no_dtd_sentinel(self):
        from repro.runtime.plan_cache import DEFAULT_PIPELINE_CONFIG

        assert dtd_fingerprint(None) == NO_DTD_FINGERPRINT
        assert cache_key("q", None) == ("q", NO_DTD_FINGERPRINT, DEFAULT_PIPELINE_CONFIG)
        assert cache_key("q", None, "10101") == ("q", NO_DTD_FINGERPRINT, "10101")


class TestPlanCache:
    def test_hit_on_identical_query_and_dtd(self, strong_pipeline):
        cache = PlanCache()
        first, first_cached = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        second, second_cached = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert second is first
        assert (first_cached, second_cached) == (False, True)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_miss_on_different_dtd(self, strong_pipeline, weak_pipeline):
        cache = PlanCache()
        strong_plan, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        weak_plan, _ = cache.get_or_compile(PAPER_Q3, weak_pipeline)
        assert weak_plan is not strong_plan
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache) == 2
        # Both schema variants stay resident side by side.
        assert cache.get(PAPER_Q3, strong_pipeline.dtd) is strong_plan
        assert cache.get(PAPER_Q3, weak_pipeline.dtd) is weak_plan

    def test_miss_on_different_pipeline_config(self, strong_pipeline):
        # An ablation pipeline must never be served a plan compiled with
        # the full optimizer (the plans produce different FluX queries).
        cache = PlanCache()
        ablated = OptimizerPipeline(
            strong_pipeline.dtd,
            enable_loop_merging=False,
            use_order_constraints=False,
        )
        full_plan, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        ablated_plan, _ = cache.get_or_compile(PAPER_Q3, ablated)
        assert ablated_plan is not full_plan
        assert cache.stats.misses == 2
        assert len(cache) == 2
        assert cache.get_or_compile(PAPER_Q3, ablated) == (ablated_plan, True)

    def test_miss_on_different_query(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(get_query("BIB-Q1").xquery, strong_pipeline)
        assert cache.stats.misses == 2

    def test_lru_eviction(self, strong_pipeline):
        cache = PlanCache(capacity=2)
        q1 = get_query("BIB-Q1").xquery
        q2 = get_query("BIB-Q2").xquery
        q3 = get_query("BIB-Q4").xquery
        cache.get_or_compile(q1, strong_pipeline)
        cache.get_or_compile(q2, strong_pipeline)
        cache.get_or_compile(q1, strong_pipeline)  # refresh q1
        cache.get_or_compile(q3, strong_pipeline)  # evicts q2 (LRU)
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert cache.get(q2, strong_pipeline.dtd) is None  # counted as a miss
        assert cache.get(q1, strong_pipeline.dtd) is not None

    def test_stats_counters_and_hit_rate(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        stats = cache.stats.as_dict()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_clear_keeps_stats(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_contains_and_len_reflect_entries(self, strong_pipeline):
        cache = PlanCache()
        key = cache_key(PAPER_Q3, strong_pipeline.dtd, strong_pipeline.config_fingerprint())
        assert key not in cache
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert key in cache
        assert len(cache) == 1


class TestPlanCacheConcurrency:
    """Concurrent misses on one key must compile exactly once."""

    def _patched(self, monkeypatch, behaviour):
        import repro.runtime.plan_cache as plan_cache_module

        monkeypatch.setattr(plan_cache_module, "compile_query", behaviour)

    def test_single_flight_compilation(self, strong_pipeline, monkeypatch):
        import threading
        import time

        import repro.runtime.plan_cache as plan_cache_module

        real_compile = plan_cache_module.compile_query
        compiles = []

        def slow_compile(query, pipeline=None):
            compiles.append(query)
            time.sleep(0.05)  # widen the race window
            return real_compile(query, pipeline=pipeline)

        self._patched(monkeypatch, slow_compile)
        cache = PlanCache()
        results = []

        def worker():
            results.append(cache.get_or_compile(PAPER_Q3, strong_pipeline))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(compiles) == 1
        assert len({id(entry) for entry, _ in results}) == 1
        # Exactly the leader reports a fresh compilation.
        assert sum(1 for _, from_cache in results if not from_cache) == 1
        # One compilation paid (the leader's miss); everyone else either
        # coalesced onto the flight or hit the freshly-inserted entry.
        assert cache.stats.misses == 1
        assert cache.stats.coalesced + cache.stats.hits == 7
        # hit_rate reflects that 7 of 8 callers never compiled.
        assert cache.stats.hit_rate == pytest.approx(7 / 8)
        entry, from_cache = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert from_cache and cache.stats.hits >= 1

    def test_follower_receives_leader_error(self, strong_pipeline):
        from repro.runtime.plan_cache import _Flight

        cache = PlanCache()
        key = cache_key(
            PAPER_Q3, strong_pipeline.dtd, strong_pipeline.config_fingerprint()
        )
        flight = _Flight()
        flight.error = RuntimeError("injected compile failure")
        flight.done.set()
        cache._inflight[key] = flight
        with pytest.raises(RuntimeError, match="injected compile failure") as excinfo:
            cache.get_or_compile(PAPER_Q3, strong_pipeline)
        # The follower raised its own copy, chained to the leader's original.
        assert excinfo.value is not flight.error
        assert excinfo.value.__cause__ is flight.error

    def test_concurrent_followers_get_distinct_errors_with_intact_tracebacks(
        self, strong_pipeline, monkeypatch
    ):
        """Each follower's re-raise must not stomp the other followers'.

        With one shared exception instance, every follower's ``raise``
        splices frames onto the same ``__traceback__``; here each follower
        must observe exactly its own raise site.
        """
        import threading
        import time
        import traceback

        leader_error = ValueError("injected compile failure")

        def failing_compile(query, pipeline=None):
            time.sleep(0.05)  # keep the flight open while followers join
            raise leader_error

        self._patched(monkeypatch, failing_compile)
        cache = PlanCache()
        barrier = threading.Barrier(4)
        caught = []
        caught_lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                cache.get_or_compile(PAPER_Q3, strong_pipeline)
            except ValueError as exc:
                with caught_lock:
                    caught.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(caught) == 4
        # No caller was served: the leader is the one (failed) miss, and
        # followers of a failed flight must not inflate hit_rate.
        assert cache.stats.misses == 1
        assert cache.stats.coalesced == 0
        assert cache.stats.hit_rate == 0.0
        followers = [exc for exc in caught if exc is not leader_error]
        assert len(followers) == 3
        # Distinct instances per follower, all chained to the leader's.
        assert len({id(exc) for exc in followers}) == 3
        for exc in followers:
            assert exc.__cause__ is leader_error
            assert str(exc) == "injected compile failure"
            frames = traceback.extract_tb(exc.__traceback__)
            # Intact: exactly one raise site (get_or_compile), no frames
            # spliced in by the other followers' re-raises.
            assert [f.name for f in frames].count("get_or_compile") == 1
            assert frames[0].name == "worker"

    def test_followers_count_as_coalesced_not_misses(self, strong_pipeline, monkeypatch):
        import threading
        import time

        import repro.runtime.plan_cache as plan_cache_module

        real_compile = plan_cache_module.compile_query
        started = threading.Event()
        release = threading.Event()

        def gated_compile(query, pipeline=None):
            started.set()
            release.wait(5)
            return real_compile(query, pipeline=pipeline)

        self._patched(monkeypatch, gated_compile)
        cache = PlanCache()
        results = []

        def call():
            results.append(cache.get_or_compile(PAPER_Q3, strong_pipeline))

        leader = threading.Thread(target=call)
        leader.start()
        assert started.wait(5)
        followers = [threading.Thread(target=call) for _ in range(3)]
        for thread in followers:
            thread.start()
        # Wait until all three followers joined the flight, then release
        # the leader.
        (flight,) = cache._inflight.values()
        deadline = time.time() + 5
        while flight.followers < 3 and time.time() < deadline:
            time.sleep(0.001)
        release.set()
        leader.join()
        for thread in followers:
            thread.join()
        stats = cache.stats.as_dict()
        assert stats["misses"] == 1
        assert stats["coalesced"] == 3
        assert stats["hits"] == 0
        assert stats["hit_rate"] == pytest.approx(3 / 4)
        # Followers still report from_cache=True: they did not compile.
        assert sum(1 for _, from_cache in results if not from_cache) == 1

    def test_failed_flight_clears_so_later_calls_retry(self, strong_pipeline, monkeypatch):
        import repro.runtime.plan_cache as plan_cache_module

        real_compile = plan_cache_module.compile_query
        attempts = []

        def flaky_compile(query, pipeline=None):
            attempts.append(query)
            if len(attempts) == 1:
                raise RuntimeError("injected compile failure")
            return real_compile(query, pipeline=pipeline)

        self._patched(monkeypatch, flaky_compile)
        cache = PlanCache()
        with pytest.raises(RuntimeError):
            cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert not cache._inflight  # the failed flight did not linger
        entry, from_cache = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert entry is not None and not from_cache
        assert len(attempts) == 2


class TestStructuralInterning:
    """Alias texts (same computation, different spelling) share one plan.

    Interning is keyed by :func:`structure_key` — variables α-renamed
    away — so the cache holds one canonical plan object per distinct
    computation, however many text keys point at it, and eviction of one
    alias never strands (or prematurely drops) the shared object.
    """

    def test_alias_text_interns_to_the_cached_canonical_plan(self, strong_pipeline):
        cache = PlanCache()
        base, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        alias, from_cache = cache.get_or_compile(
            alias_query(PAPER_Q3, 1), strong_pipeline
        )
        # A distinct text is still a compile (miss)...
        assert not from_cache
        assert cache.stats.misses == 2
        # ...but the *stored and returned* plan is the canonical object.
        assert alias is base
        assert cache.stats.interned == 1
        assert len(cache) == 2
        assert cache.structure_count() == 1

    def test_distinct_structures_never_intern(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(get_query("BIB-Q1").xquery, strong_pipeline)
        assert cache.stats.interned == 0
        assert cache.structure_count() == 2

    def test_structure_survives_eviction_of_one_alias(self, strong_pipeline):
        cache = PlanCache(capacity=2)
        base, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(alias_query(PAPER_Q3, 1), strong_pipeline)
        # Evicts the LRU alias entry (the base text), one of the two
        # entries sharing the structure — the canonical plan must survive
        # for the remaining alias.
        cache.get_or_compile(get_query("BIB-Q1").xquery, strong_pipeline)
        assert cache.stats.evictions == 1
        assert cache.structure_count() == 2
        third, _ = cache.get_or_compile(alias_query(PAPER_Q3, 2), strong_pipeline)
        assert third is base  # still interning against the survivor
        assert cache.stats.interned == 2
        # Inserting the third alias evicted the second — the last other
        # holder of the structure — yet the structure table still maps the
        # skey to the shared object the new entry carries.
        assert cache.structure_count() == 2

    def test_structure_is_released_with_its_last_entry(self, strong_pipeline):
        cache = PlanCache(capacity=1)
        old, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(get_query("BIB-Q1").xquery, strong_pipeline)
        assert cache.stats.evictions == 1
        assert cache.structure_count() == 1  # the old structure is gone
        fresh, from_cache = cache.get_or_compile(
            alias_query(PAPER_Q3, 1), strong_pipeline
        )
        # Nothing left to intern against: a fresh canonical is compiled.
        assert not from_cache
        assert fresh is not old
        assert cache.stats.interned == 0

    def test_clear_drops_structures_too(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(alias_query(PAPER_Q3, 1), strong_pipeline)
        cache.clear()
        assert cache.structure_count() == 0
        refetched, from_cache = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert not from_cache and refetched is not None


class TestSnapshotCompatibility:
    """Snapshots stay version 2 both ways across the sidecar's removal.

    Earlier builds wrote an ``observations`` sidecar (measured pass metrics
    by structure key) beside the artifacts without bumping the version;
    readers ignore unknown keys, so either build reads the other's files.
    """

    def test_snapshot_with_an_observations_sidecar_loads(self, strong_pipeline, tmp_path):
        import pickle

        from repro.runtime.plan_cache import structure_key

        cache = PlanCache()
        entry, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        artifacts = cache.artifacts()
        path = tmp_path / "plans.bin"
        path.write_bytes(
            pickle.dumps(
                {
                    "format": PlanCache.SNAPSHOT_FORMAT,
                    "version": 2,
                    "artifacts": artifacts,
                    "entries": [(artifacts[0].key, 0)],
                    "observations": {
                        structure_key(entry): {
                            "passes": 3.0,
                            "events_routed": 120.0,
                            "document_bytes": 900.0,
                            "elapsed_seconds": 0.02,
                            "peak_buffer_bytes": 64.0,
                        }
                    },
                }
            )
        )
        warmed = PlanCache()
        assert warmed.load(str(path)) == 1
        assert warmed.stats.preloaded == 1
        _, cached = warmed.get_or_compile(PAPER_Q3, strong_pipeline)
        assert cached is True
        # The sidecar is ignored, not carried: the next dump has none.
        warmed.dump(str(path))
        with open(path, "rb") as handle:
            assert "observations" not in pickle.load(handle)

    def test_dump_is_version_2_without_an_observations_key(self, strong_pipeline, tmp_path):
        import pickle

        path = str(tmp_path / "plans.bin")
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.dump(path)
        with open(path, "rb") as handle:
            snapshot = pickle.load(handle)
        assert PlanCache.SNAPSHOT_VERSION == 2
        assert snapshot["version"] == 2
        assert set(snapshot) == {"format", "version", "artifacts", "entries"}


class TestStructureKeyMemo:
    """The memoized structure key never rides inside a pickle.

    A loaded plan is keyed by the loading build's definition, so aliases
    registered after a warm start intern against the snapshot's plans.
    """

    def test_artifact_round_trip_carries_no_memo(self, strong_pipeline):
        entry = compile_query(PAPER_Q3, pipeline=strong_pipeline)
        skey = structure_key(entry)
        artifact = PlanArtifact.from_plan(entry)
        assert b"_structure_key" not in artifact.payload
        loaded = artifact.load_plan()
        assert "_structure_key" not in loaded.__dict__
        assert structure_key(loaded) == skey

    def test_snapshot_with_stale_memos_loads_and_aliases_intern(
        self, strong_pipeline, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "plans.bin")
        cache = PlanCache()
        entry, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        # A snapshot whose plans carry a memo of another key definition,
        # as builds that pickled the memo wrote them.
        entry.__dict__["_structure_key"] = "stale"
        monkeypatch.delattr(CompiledQueryPlan, "__getstate__")
        cache.dump(path)
        monkeypatch.undo()
        with open(path, "rb") as handle:
            (artifact,) = pickle.load(handle)["artifacts"]
        assert b"stale" in artifact.payload
        warmed = PlanCache()
        assert warmed.load(path) == 1
        loaded, from_cache = warmed.get_or_compile(PAPER_Q3, strong_pipeline)
        assert from_cache
        assert structure_key(loaded) != "stale"
        alias, from_cache = warmed.get_or_compile(alias_query(PAPER_Q3, 1), strong_pipeline)
        assert not from_cache
        assert alias is loaded
        assert warmed.stats.interned == 1
        assert warmed.structure_count() == 1
        warmed.dump(path)
        with open(path, "rb") as handle:
            (artifact,) = pickle.load(handle)["artifacts"]
        assert b"_structure_key" not in artifact.payload


class TestOptimizerRunsOncePerStructure:
    """A 1000-alias fleet of four structures optimizes and compiles four times."""

    AUCTION_KEYS = ("AUC-A1", "AUC-A2", "AUC-A3", "AUC-A4")

    def test_aliases_skip_the_optimizer(self, monkeypatch):
        calls = {"optimize": 0, "compile": 0}
        real_optimize = OptimizerPipeline.compile
        real_compile = QueryCompiler.compile

        def counted_optimize(self, query):
            calls["optimize"] += 1
            return real_optimize(self, query)

        def counted_compile(self, query):
            calls["compile"] += 1
            return real_compile(self, query)

        monkeypatch.setattr(OptimizerPipeline, "compile", counted_optimize)
        monkeypatch.setattr(QueryCompiler, "compile", counted_compile)
        fleet = make_fleet([get_query(key).xquery for key in self.AUCTION_KEYS], 1000)
        document = generate_auction_site(scale=0.05, seed=1)
        shared, service = run_shared(fleet, document, dtd=AUCTION_DTD)
        assert calls == {"optimize": 4, "compile": 4}
        assert service.plan_cache.stats.misses == 1000
        assert service.plan_cache.stats.interned == 996
        assert service.plan_cache.structure_count() == 4
        assert service.metrics.queries_deduped == 996
        monkeypatch.undo()
        assert shared == run_solo(fleet, document, dtd=AUCTION_DTD)


# ------------------------------------------------------------------------
# The structure key before it dropped the plan half, frozen verbatim: a
# canonical serialization of the parsed AST *and* the physical plan tree.


def _reference_canon_value(value, rename, out):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(f"({type(value).__name__}")
        is_var_ref = isinstance(value, VarRef)
        for field_info in dataclasses.fields(value):
            field_name = field_info.name
            field_value = getattr(value, field_name)
            out.append(f" {field_name}=")
            if field_name == "var" or (is_var_ref and field_name == "name"):
                canon = rename.get(field_value)
                if canon is None:
                    canon = f"v{len(rename)}"
                    rename[field_value] = canon
                out.append(canon)
            else:
                _reference_canon_value(field_value, rename, out)
        out.append(")")
    elif isinstance(value, tuple) or isinstance(value, list):
        out.append("[")
        for item in value:
            _reference_canon_value(item, rename, out)
            out.append(",")
        out.append("]")
    elif isinstance(value, (set, frozenset)):
        out.append("{")
        for item in sorted(value, key=repr):
            _reference_canon_value(item, rename, out)
            out.append(",")
        out.append("}")
    elif isinstance(value, dict):
        out.append("<")
        for item_key in sorted(value, key=repr):
            _reference_canon_value(item_key, rename, out)
            out.append(":")
            _reference_canon_value(value[item_key], rename, out)
            out.append(",")
        out.append(">")
    else:
        out.append(repr(value))


def _reference_structure_key(entry):
    out, rename = [], {}
    _reference_canon_value(entry.optimized.parsed, rename, out)
    out.append("|")
    _reference_canon_value(entry.plan.root, rename, out)
    digest = hashlib.sha256("".join(out).encode("utf-8")).hexdigest()
    return f"{digest}:{dtd_fingerprint(entry.dtd)}:{entry.pipeline_config}"


def _reference_parsed_canon(value, scope, depth, out):
    """The parsed-AST key walk spelled per node with ``dataclasses.fields``."""
    if not dataclasses.is_dataclass(value):
        if isinstance(value, tuple):
            out.append("[")
            for item in value:
                _reference_parsed_canon(item, scope, depth, out)
                out.append(",")
            out.append("]")
        else:
            out.append(repr(value))
        return
    names = [field_info.name for field_info in dataclasses.fields(value)]
    binder = isinstance(value, (ForExpr, LetExpr))
    if binder:
        # The bound variable is in scope after its domain, not inside it.
        names.remove("var")
        names.insert(names.index("source" if isinstance(value, ForExpr) else "value") + 1, "var")
    out.append(f"({type(value).__name__}")
    for name in names:
        out.append(f" {name}=")
        field_value = getattr(value, name)
        if binder and name == "var":
            scope = {**scope, field_value: f"v{depth}"}
            depth += 1
            out.append(scope[field_value])
        elif name == "var" or (isinstance(value, VarRef) and name == "name"):
            out.append(scope.get(field_value, "$" + field_value))
        else:
            _reference_parsed_canon(field_value, scope, depth, out)
    out.append(")")


#: A query on a free variable other than the document: it compiles, and
#: evaluating it raises an error naming ``$doc``.
FREE_VARIABLE_QUERY = "for $b in $doc/bib/book return $b/title"


def _partition(labels_by_key):
    groups = {}
    for label, key in labels_by_key.items():
        groups.setdefault(key, set()).add(label)
    return {frozenset(group) for group in groups.values()}


class TestParsedStructureKey:
    """Keying on the parsed AST alone merges nothing the AST+plan key kept
    apart, and splits nothing it merged."""

    @pytest.fixture(scope="class")
    def entries(self):
        worlds = {
            "strong": parse_dtd(BIB_DTD_STRONG),
            "weak": parse_dtd(BIB_DTD_WEAK),
            "auction": parse_dtd(AUCTION_DTD),
            "none": None,
        }
        pipelines = {
            f"{name}/{ablation}": OptimizerPipeline(dtd, enable_loop_merging=ablation == "default")
            for name, dtd in worlds.items()
            for ablation in ("default", "no-loop-merging")
        }
        texts = {
            spec.key: spec.xquery
            for spec in queries_for_workload("bib") + queries_for_workload("auction")
        }
        texts["FREE-doc"] = FREE_VARIABLE_QUERY
        return {
            (key, world, variant): compile_query(alias_query(text, variant), pipeline=pipeline)
            for key, text in texts.items()
            for world, pipeline in pipelines.items()
            for variant in range(4)
        }

    def test_same_partition_as_the_ast_and_plan_key(self, entries):
        new = _partition({label: structure_key(e) for label, e in entries.items()})
        old = _partition({label: _reference_structure_key(e) for label, e in entries.items()})
        assert new == old

    def test_equal_keys_exactly_for_aliases_in_one_world(self, entries):
        new = _partition({label: structure_key(e) for label, e in entries.items()})
        expected = _partition({label: label[:2] for label in entries})
        assert new == expected

    def test_ast_serialization_is_byte_identical_to_the_reference(self, entries):
        for entry in entries.values():
            out, reference = [], []
            _canon_value(entry.optimized.parsed, {}, 0, out)
            _reference_parsed_canon(entry.optimized.parsed, {}, 0, reference)
            assert "".join(out) == "".join(reference)


class TestFreeVariables:
    """Only variables the query binds are renamed; free ones are kept.

    ``$ROOT`` (an absolute path) is the one variable the compiler streams,
    and any other free variable is an evaluation error naming it, so two
    queries that differ in a free name are different computations.
    """

    ABSOLUTE = "for $b in /bib/book return $b/title"

    @staticmethod
    def _key(query, pipeline):
        return structure_key(compile_query(query, pipeline=pipeline))

    def test_document_and_free_variable_paths_never_share_a_key(self, strong_pipeline):
        keys = {
            self._key(query, strong_pipeline)
            for query in (
                self.ABSOLUTE,
                FREE_VARIABLE_QUERY,
                "for $b in $x/bib/book return $b/title",
                "for $b in $v0/bib/book return $b/title",
            )
        }
        assert len(keys) == 4

    def test_a_free_variable_query_does_not_intern_to_the_document_query(
        self, strong_pipeline
    ):
        from repro.engines.flux_engine import FluxEngine
        from repro.errors import EvaluationError

        for first, second in (
            (self.ABSOLUTE, FREE_VARIABLE_QUERY),
            (FREE_VARIABLE_QUERY, self.ABSOLUTE),
        ):
            cache = PlanCache()
            plan, _ = cache.get_or_compile(first, strong_pipeline)
            other, from_cache = cache.get_or_compile(second, strong_pipeline)
            assert not from_cache and other is not plan
            assert cache.stats.interned == 0
            assert cache.structure_count() == 2
            engine = FluxEngine(dtd=parse_dtd(PAPER_FIGURE1_DTD), plan_cache=cache)
            document = (
                "<bib><book><title>T</title><author>A</author>"
                "<publisher>P</publisher><price>1</price></book></bib>"
            )
            assert engine.execute(self.ABSOLUTE, document).output == "<title>T</title>"
            with pytest.raises(EvaluationError, match=r"unbound variable \$doc"):
                engine.execute(FREE_VARIABLE_QUERY, document)
            assert cache.stats.hits == 2  # both ran the plans cached above

    def test_renaming_follows_scope(self, strong_pipeline):
        key = functools.partial(self._key, pipeline=strong_pipeline)
        # Shadowing: the inner binder is a new variable whatever its name.
        assert key(
            "for $a in /bib/book return for $a in $a/title return $a"
        ) == key("for $b in /bib/book return for $c in $b/title return $c")
        # A use outside the binder's scope is the free variable of that name.
        assert key("(for $x in /bib/book return $x/title), $x") == key(
            "(for $y in /bib/book return $y/title), $x"
        )
        assert key("(for $x in /bib/book return $x/title), $x") != key(
            "(for $y in /bib/book return $y/title), $y"
        )
        # The source of a ``for`` is outside its variable's scope.
        assert key("for $x in $x/bib return $x") != key("for $y in $x/bib return $x")
        assert key("let $t := /bib/book/title return $t") == key(
            "let $u := /bib/book/title return $u"
        )
