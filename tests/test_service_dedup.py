"""Structural plan dedup: sharing, refcounted churn, and fleet smokes.

The multi-tenancy contract has three failure modes this file attacks:

* **wrong sharing** — two different computations conflated into one
  structure, or one computation split into several (the sharing tests pin
  both directions, including the ``dedup=False`` opt-out);
* **lifecycle leaks** — a refcount that drifts under randomized
  register/unregister/replace churn, a structure that outlives its last
  subscriber or dies under a live one (the fuzz test re-checks every
  invariant after every operation, and serves documents between bursts to
  prove the surviving registrations still answer byte-identically);
* **fleet-scale wrong answers** — the 1k-query differential smokes (one
  per backend, also run as CI's ``fleet`` leg) assert shared outputs match
  solo runs with routing masks spanning *structures*, not registrants.
"""

import random

import pytest

from repro.bench.fleets import (
    alias_query,
    make_fleet,
    run_differential,
    run_shared,
    run_solo,
)
from repro.core.optimizer import OptimizerPipeline
from repro.engines.flux_engine import FluxEngine
from repro.runtime.compiler import compile_query
from repro.runtime.plan_cache import structure_key
from repro.service import ProcessServicePool, QueryService
from repro.service.dispatcher import PlanProfile, SharedProjectionIndex
from repro.service.metrics import PassMetrics
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload
from repro.xmlstream.parser import StreamingXMLParser

BASES = [spec.xquery for spec in queries_for_workload("bib")]


@pytest.fixture(scope="module")
def bib_document():
    return generate_bibliography(num_books=10, seed=7)


def _service(**kwargs):
    return QueryService(BIB_DTD_STRONG, **kwargs)


class TestStructureSharing:
    def test_aliases_share_one_refcounted_structure(self):
        service = _service()
        service.register(BASES[0], key="a")
        service.register(alias_query(BASES[0], 1), key="b")
        service.register(alias_query(BASES[0], 2), key="c")
        assert len(service.structures) == 1
        (structure,) = service.structures.values()
        assert structure.refcount == 3
        assert service.metrics.queries_deduped == 2
        assert service.metrics.structures_registered == 1
        # All three registrations hold the same structure object.
        regs = service.registrations
        assert regs["a"].structure is regs["b"].structure is regs["c"].structure

    def test_distinct_queries_do_not_share(self):
        service = _service()
        service.register(BASES[0], key="a")
        service.register(BASES[1], key="b")
        assert len(service.structures) == 2
        assert service.metrics.queries_deduped == 0
        regs = service.registrations
        assert regs["a"].structure is not regs["b"].structure
        assert regs["a"].structure.skey != regs["b"].structure.skey

    def test_unregister_releases_but_keeps_live_structure(self):
        service = _service()
        service.register(BASES[0], key="a")
        service.register(alias_query(BASES[0], 1), key="b")
        service.unregister("a")
        assert len(service.structures) == 1
        (structure,) = service.structures.values()
        assert structure.refcount == 1
        assert service.metrics.structures_released == 0
        service.unregister("b")
        assert service.structures == {}
        assert service.metrics.structures_released == 1

    def test_replace_with_same_structure_keeps_the_plan(self):
        service = _service()
        service.register(BASES[0], key="a")
        service.register(alias_query(BASES[0], 1), key="a")  # replace
        assert service.metrics.queries_replaced == 1
        assert len(service.structures) == 1
        (structure,) = service.structures.values()
        assert structure.refcount == 1
        assert service.metrics.structures_released == 0

    def test_replace_with_different_structure_releases_the_old(self):
        service = _service()
        service.register(BASES[0], key="a")
        service.register(BASES[1], key="a")  # replace with a new structure
        assert len(service.structures) == 1
        (structure,) = service.structures.values()
        assert structure.skey == structure_key(
            compile_query(BASES[1], pipeline=OptimizerPipeline(service.dtd))
        )
        assert service.metrics.structures_released == 1

    def test_dedup_false_keeps_private_structures(self, bib_document):
        service = _service(dedup=False)
        service.register(BASES[0], key="a")
        service.register(alias_query(BASES[0], 1), key="b")
        assert service.structures == {}
        assert service.metrics.queries_deduped == 0
        results = service.run_pass(bib_document)
        assert service.metrics.last_pass.structures == 2
        assert results["a"].output == results["b"].output

    def test_shared_pass_evaluates_once_per_structure(self, bib_document):
        service = _service()
        fleet = make_fleet(BASES[:3], 9)
        for query in fleet:
            service.register(query.text, key=query.key)
        results = service.run_pass(bib_document)
        metrics = service.metrics.last_pass
        assert metrics.queries == 9
        assert metrics.structures == 3
        # Fan-out shares the evaluated output by reference: aliases of one
        # structure return the *same* string object, not a copy.
        assert results["q00000"].output is results["q00003"].output
        # ...while each result still echoes its own registration's text.
        assert results["q00003"].query == fleet[3].text != fleet[0].text


class TestRegistrationChurnFuzz:
    """Randomized register/unregister/replace between serve passes.

    After every operation the full invariant set must hold; every few
    operations one document is served and each registration's output is
    byte-compared against a memoized solo run of its exact text.
    """

    def _check_invariants(self, service):
        metrics = service.metrics
        assert (
            metrics.queries_registered
            - metrics.queries_unregistered
            - metrics.queries_replaced
            == len(service)
        )
        structures = service.structures
        assert (
            metrics.structures_registered - metrics.structures_released
            == len(structures)
        )
        regs = service.registrations
        # Refcounts sum to the number of live registrations, and every
        # registration holds exactly the table's object for its key.
        assert sum(s.refcount for s in structures.values()) == len(regs)
        by_skey = {}
        for registration in regs.values():
            skey = registration.structure.skey
            assert structures[skey] is registration.structure
            by_skey.setdefault(skey, registration.structure)
            assert by_skey[skey] is registration.structure

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_churn_never_leaks_or_double_frees(self, seed, bib_document):
        rng = random.Random(seed)
        texts = [
            alias_query(base, variant)
            for base in BASES[:3]
            for variant in range(4)
        ]
        engine = FluxEngine(BIB_DTD_STRONG)
        solo_memo = {}
        service = _service()
        live = {}
        for step in range(60):
            op = rng.random()
            if op < 0.55 or not live:
                key = f"k{rng.randrange(8)}"  # small keyspace forces replaces
                text = rng.choice(texts)
                service.register(text, key=key)
                live[key] = text
            elif op < 0.85:
                key = rng.choice(sorted(live))
                service.unregister(key)
                del live[key]
            else:
                if live:
                    results = service.run_pass(bib_document)
                    assert set(results) == set(live)
                    for key, text in live.items():
                        if text not in solo_memo:
                            solo_memo[text] = engine.execute(
                                text, bib_document
                            ).output
                        assert results[key].output == solo_memo[text], key
                    assert service.metrics.last_pass.structures == len(
                        {structure_key(r.entry) for r in service.registrations.values()}
                    )
            self._check_invariants(service)
        for key in sorted(live):
            service.unregister(key)
            self._check_invariants(service)
        assert service.structures == {}
        assert (
            service.metrics.structures_registered
            == service.metrics.structures_released
        )


class TestGroupMaskDomain:
    """Regression (routing cost): masks span structures, not registrants.

    Pre-trie, ``route()`` built one arbitrary-precision int bit per
    registered plan per event — 1k aliases meant 1k-bit mask arithmetic in
    the hot loop.  With group-level routing the mask domain is the number
    of *distinct structures*, however many subscribers ride on them.
    """

    def test_route_masks_at_1k_subscribers_stay_group_width(self, bib_document):
        pipeline = OptimizerPipeline(BIB_DTD_STRONG)
        entries = [compile_query(base, pipeline=pipeline) for base in BASES[:2]]
        keys = [
            [f"s{group}-a{i:04d}" for i in range(500)]
            for group in range(len(entries))
        ]
        metrics = PassMetrics(queries=1000)
        index = SharedProjectionIndex(
            [PlanProfile(entry) for entry in entries], metrics, keys=keys
        )
        assert index.group_count == 2
        assert index.full_mask.bit_length() == 2  # not 1000
        parser = StreamingXMLParser.incremental()
        events = list(parser.feed(bib_document)) + list(parser.close())
        for event in events:
            mask = index.route(event)
            assert mask.bit_length() <= 2  # group-width ints per event
        index.finalize_metrics()
        # Group tallies expand lazily to all 1000 subscriber keys.
        assert len(metrics.per_query_forwarded) == 1000
        assert metrics.per_query_forwarded["s0-a0000"] == (
            metrics.per_query_forwarded["s0-a0499"]
        )


class TestFleetDifferentialSmoke:
    """The 1k-query shared-vs-solo smokes (CI's ``fleet`` leg)."""

    @pytest.mark.parametrize("dedup", [True, False])
    def test_differential_harness_sync_and_async_all_chunkings(
        self, bib_document, dedup
    ):
        chunkings = (None, 1, 64, [3, 50, 1000])
        summary = run_differential(
            BASES,
            14,
            bib_document,
            dtd=BIB_DTD_STRONG,
            chunkings=chunkings,
            include_async=True,
            dedup=dedup,
        )
        assert len(summary["configurations"]) == 2 * len(chunkings)
        expected = len(BASES) if dedup else 14
        assert summary["structures_per_pass"] == [expected] * len(chunkings)

    QUERIES = 1000
    STRUCTURES = 4
    SAMPLE = 60

    def _fleet(self):
        return make_fleet(BASES[: self.STRUCTURES], self.QUERIES)

    def _sample_keys(self, fleet):
        rng = random.Random(20040831)
        return {query.key for query in rng.sample(fleet, self.SAMPLE)}

    def test_fleet_smoke_in_process_1k(self, bib_document):
        fleet = self._fleet()
        shared, service = run_shared(fleet, bib_document, dtd=BIB_DTD_STRONG)
        assert len(shared) == self.QUERIES
        assert service.metrics.last_pass.structures == self.STRUCTURES
        assert service.metrics.queries_deduped == self.QUERIES - self.STRUCTURES
        solo = run_solo(
            fleet,
            bib_document,
            dtd=BIB_DTD_STRONG,
            keys=self._sample_keys(fleet),
        )
        for key, expected in solo.items():
            assert shared[key] == expected, key
        # Within each structure every subscriber got the same bytes, so
        # the sampled solo comparison covers all 1k subscribers.
        by_structure = {}
        for query in fleet:
            by_structure.setdefault(query.structure, set()).add(
                shared[query.key]
            )
        assert all(len(outputs) == 1 for outputs in by_structure.values())

    def test_fleet_smoke_processes_1k(self, bib_document):
        fleet = self._fleet()
        workers = 2
        with ProcessServicePool(BIB_DTD_STRONG, workers=workers) as pool:
            for query in fleet:
                pool.register(query.text, key=query.key)
            assert len(pool.structures) == self.STRUCTURES
            (served,) = list(pool.serve([bib_document]))
            metrics = pool.metrics
        assert served.ok
        # One artifact per distinct structure per worker — not per query.
        assert metrics.ship_count == workers * self.STRUCTURES
        solo = run_solo(
            fleet,
            bib_document,
            dtd=BIB_DTD_STRONG,
            keys=self._sample_keys(fleet),
        )
        for key, expected in solo.items():
            assert served.results[key].output == expected, key
