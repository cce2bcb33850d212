"""The multi-process service pool: plan shipping, sharding, crash recovery.

The pool contract every backend shares — byte-identical results, the
loop's guards, fault isolation for failing documents — is checked for the
process backend too by ``tests/test_service_pool.py``.  This file holds
what only the process transport can do:

* **compile-once across the process boundary**: the parent's plan cache
  pays exactly one miss per distinct query, one artifact per distinct
  *structure* ships to every worker (``ship_count == workers ×
  structures`` — alias registrations ride on a shipped plan for free),
  and the workers report zero optimizer runs of their own;
* **crash recovery**: a worker process dying mid-document (injected with
  the pool's fault marker) surfaces as an error-tagged ``ServedDocument``
  carrying :class:`WorkerCrashError`, the slot respawns (plans re-shipped),
  and every other document — including later ones — is served
  byte-identically to a solo run.

Process spawns dominate the runtime here, so the pools stay small.
"""

import io

import pytest

from repro.bench.fleets import alias_query
from repro.engines.flux_engine import FluxEngine
from repro.errors import WorkerCrashError, XMLSyntaxError
from repro.runtime.plan_cache import PlanCache
from repro.service import (
    FileDocument,
    ProcessServicePool,
    QueryService,
)
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import get_query

TITLES_QUERY = "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"

#: The fault-injection marker used by the crash tests.
CRASH = "CRASH-THIS-WORKER"


@pytest.fixture(scope="module")
def documents():
    return [
        generate_bibliography(num_books=books, seed=seed)
        for books, seed in [(6, 1), (11, 2), (8, 3), (5, 4), (9, 5)]
    ]


@pytest.fixture(scope="module")
def solo_outputs(documents):
    engine = FluxEngine(BIB_DTD_STRONG)
    q1 = get_query("BIB-Q1").xquery
    return [
        {
            "q1": engine.execute(q1, document).output,
            "t": engine.execute(TITLES_QUERY, document).output,
        }
        for document in documents
    ]


def register_fleet(pool):
    pool.register(get_query("BIB-Q1").xquery, key="q1")
    pool.register(TITLES_QUERY, key="t")


class TestShardedServing:
    def test_results_match_solo_with_shipping_verified(self, documents, solo_outputs):
        with ProcessServicePool(BIB_DTD_STRONG, workers=2) as pool:
            register_fleet(pool)
            served = list(pool.serve(documents))

            assert sorted(outcome.index for outcome in served) == list(
                range(len(documents))
            )
            for outcome in served:
                assert outcome.ok
                assert outcome.worker in (0, 1)
                produced = {
                    key: result.output for key, result in outcome.results.items()
                }
                assert produced == solo_outputs[outcome.index]

            # Compile-once, parent side: one miss per distinct query, and
            # one artifact shipped per (worker, query).
            assert pool.plan_cache.stats.misses == 2
            metrics = pool.metrics
            assert metrics.ship_count == 2 * 2
            assert metrics.ship_bytes > 0
            # Compile-once, worker side: no worker ran the optimizer.
            assert pool.worker_compilations() == {0: 0, 1: 0}
            assert metrics.documents_ok == len(documents)
            assert metrics.documents_failed == 0
            assert metrics.passes_completed == len(documents)

    def test_fleet_survives_across_serve_loops(self, documents):
        with ProcessServicePool(BIB_DTD_STRONG, workers=2) as pool:
            register_fleet(pool)
            assert all(outcome.ok for outcome in pool.serve(documents[:2]))
            shipped_after_first = pool.metrics.ship_count
            assert all(outcome.ok for outcome in pool.serve(documents[2:4]))
            # No re-shipping between loops: the workers are long-lived.
            assert pool.metrics.ship_count == shipped_after_first
            assert pool.metrics.documents_ok == 4

    def test_file_like_documents_are_drained_in_the_parent(self, documents,
                                                           solo_outputs):
        with ProcessServicePool(BIB_DTD_STRONG, workers=2) as pool:
            register_fleet(pool)
            served = list(pool.serve([io.StringIO(doc) for doc in documents[:2]]))
            for outcome in served:
                produced = {
                    key: result.output for key, result in outcome.results.items()
                }
                assert produced == solo_outputs[outcome.index]

    def test_file_documents_are_read_by_the_workers(self, tmp_path, documents,
                                                    solo_outputs):
        paths = []
        for i, document in enumerate(documents[:3]):
            path = tmp_path / f"doc{i}.xml"
            path.write_text(document)
            paths.append(FileDocument(str(path)))
        with ProcessServicePool(BIB_DTD_STRONG, workers=2) as pool:
            register_fleet(pool)
            served = list(pool.serve(paths))
            assert len(served) == 3
            for outcome in served:
                assert outcome.ok
                produced = {
                    key: result.output for key, result in outcome.results.items()
                }
                assert produced == solo_outputs[outcome.index]

    def test_latency_feed_sources_materialize_in_the_workers(
        self, documents, solo_outputs
    ):
        from repro.bench.feeds import LatencyFeedSource

        stream = [
            LatencyFeedSource(doc, chunks=4, latency=0.001)
            for doc in documents[:2]
        ]
        with ProcessServicePool(BIB_DTD_STRONG, workers=2) as pool:
            register_fleet(pool)
            served = list(pool.serve(stream))
            for outcome in served:
                assert outcome.ok
                produced = {
                    key: result.output for key, result in outcome.results.items()
                }
                assert produced == solo_outputs[outcome.index]

    def test_shared_cache_precompiled_means_zero_misses(self, documents):
        cache = PlanCache()
        warm = QueryService(BIB_DTD_STRONG, plan_cache=cache)
        warm.register(TITLES_QUERY, key="t")
        misses_before = cache.stats.misses
        with ProcessServicePool(BIB_DTD_STRONG, workers=2,
                                plan_cache=cache) as pool:
            registration = pool.register(TITLES_QUERY, key="t")
            assert registration.from_cache
            assert cache.stats.misses == misses_before
            served = list(pool.serve(documents[:1]))
            assert served[0].ok
            # Shipping still happened — from the cache, not the optimizer.
            assert pool.metrics.ship_count == 2


class TestFaultIsolation:
    def test_a_failing_pass_is_not_a_crash(self, tmp_path, documents):
        # An in-pass exception — a bad document, an unopenable recipe —
        # comes home over the result pipe: nobody respawned.
        stream = [
            documents[0],
            documents[1][: len(documents[1]) // 2] + "<<<",
            FileDocument(str(tmp_path / "deleted.xml")),
        ]
        with ProcessServicePool(BIB_DTD_STRONG, workers=2) as pool:
            register_fleet(pool)
            served = sorted(pool.serve(stream), key=lambda o: o.index)
            assert [o.ok for o in served] == [True, False, False]
            assert isinstance(served[1].error, XMLSyntaxError)
            assert isinstance(served[2].error, FileNotFoundError)
            assert pool.worker_respawns == 0

    def test_worker_crash_mid_document_is_isolated_and_respawned(
        self, documents, solo_outputs
    ):
        stream = list(documents)
        stream[2] = stream[2].replace("</bib>", f"<!--{CRASH}--></bib>")
        with ProcessServicePool(
            BIB_DTD_STRONG, workers=2, _crash_marker=CRASH
        ) as pool:
            register_fleet(pool)
            served = list(pool.serve(stream))

            assert sorted(o.index for o in served) == list(range(len(stream)))
            failures = [o for o in served if not o.ok]
            assert len(failures) == 1 and failures[0].index == 2
            assert isinstance(failures[0].error, WorkerCrashError)
            assert failures[0].error.exitcode == 3
            assert failures[0].results == {}

            # The dead slot was respawned and re-shipped the full fleet.
            assert pool.worker_respawns == 1
            assert pool.metrics.ship_count == 2 * 2 + 2

            # Every other document: byte-identical to solo, crash or not.
            for outcome in served:
                if outcome.index == 2:
                    continue
                assert outcome.ok
                produced = {
                    key: result.output for key, result in outcome.results.items()
                }
                assert produced == solo_outputs[outcome.index]
            assert pool.metrics.documents_failed == 1

            # The pool keeps serving after the crash, on the same fleet.
            again = list(pool.serve(documents[:2]))
            assert all(outcome.ok for outcome in again)

    def test_every_worker_crashing_still_drains_the_stream(self, documents):
        # Both workers die (every document carries the marker): every
        # document must come back error-tagged, each crash respawning.
        stream = [
            doc.replace("</bib>", f"<!--{CRASH}--></bib>")
            for doc in documents[:3]
        ]
        with ProcessServicePool(
            BIB_DTD_STRONG, workers=2, _crash_marker=CRASH
        ) as pool:
            register_fleet(pool)
            served = list(pool.serve(stream))
            assert sorted(o.index for o in served) == [0, 1, 2]
            assert all(isinstance(o.error, WorkerCrashError) for o in served)
            assert pool.worker_respawns == 3
            assert pool.metrics.documents_failed == 3


class TestLifecycle:
    def test_registration_between_loops_ships_immediately(self, documents):
        with ProcessServicePool(BIB_DTD_STRONG, workers=2) as pool:
            register_fleet(pool)
            assert all(outcome.ok for outcome in pool.serve(documents[:2]))
            shipped = pool.metrics.ship_count
            pool.register(get_query("BIB-Q2").xquery, key="q2")
            assert pool.metrics.ship_count == shipped + 2
            assert len(pool) == 3

    def test_closed_pool_refuses_to_serve(self):
        pool = ProcessServicePool(BIB_DTD_STRONG, workers=2)
        register_fleet(pool)
        pool.close()
        with pytest.raises(RuntimeError):
            next(pool.serve(["<bib></bib>"]))
        pool.close()  # idempotent
        # The refusal released the loop guard: it is "closed", not "running".
        with pytest.raises(RuntimeError, match="closed"):
            next(pool.serve(["<bib></bib>"]))


class TestStructureDedupShipping:
    """Alias fleets ship one artifact per structure across the pipes.

    ``register_fleet`` above uses two structurally distinct queries, so
    its ``workers × structures`` equals the old ``workers × queries``;
    these tests register *aliases* — same computation, different text —
    where the two formulas diverge, and pin the per-structure one:
    shipping, crash re-shipping, and drop-on-last-unregister all operate
    on the deduped set.
    """

    WORKERS = 2

    def _aliases(self, count=3):
        return [alias_query(TITLES_QUERY, variant) for variant in range(count)]

    def test_aliases_ship_one_artifact_per_structure(self, documents,
                                                     solo_outputs):
        texts = self._aliases()
        with ProcessServicePool(BIB_DTD_STRONG, workers=self.WORKERS) as pool:
            for i, text in enumerate(texts):
                pool.register(text, key=f"a{i}")
            assert len(pool.structures) == 1
            (structure,) = pool.structures.values()
            assert structure.refcount == len(texts)
            served = list(pool.serve(documents[:2]))
            assert all(outcome.ok for outcome in served)
            for outcome in served:
                for i in range(len(texts)):
                    produced = outcome.results[f"a{i}"].output
                    assert produced == solo_outputs[outcome.index]["t"]
            # One artifact per worker — not one per registration.
            assert pool.metrics.ship_count == self.WORKERS * 1
            # Each alias *text* is its own cache miss (compiled once),
            # then interned against the canonical plan.
            assert pool.plan_cache.stats.misses == len(texts)
            assert pool.plan_cache.stats.interned == len(texts) - 1
            assert pool.worker_compilations() == {0: 0, 1: 0}

    def test_crash_respawn_reships_the_deduped_set(self, documents):
        texts = self._aliases()
        crashing = documents[0].replace("</bib>", f"<!--{CRASH}--></bib>")
        with ProcessServicePool(
            BIB_DTD_STRONG, workers=self.WORKERS, _crash_marker=CRASH
        ) as pool:
            for i, text in enumerate(texts):
                pool.register(text, key=f"a{i}")
            served = list(pool.serve([crashing, documents[1]]))
            assert sorted(outcome.ok for outcome in served) == [False, True]
            (failure,) = [o for o in served if not o.ok]
            assert isinstance(failure.error, WorkerCrashError)
            assert pool.worker_respawns == 1
            # Respawn re-ships the one deduped artifact (plus re-sends the
            # three alias subscriptions, which are not plan ships).
            assert pool.metrics.ship_count == self.WORKERS * 1 + 1
            # The respawned slot still answers for every alias key.
            (ok,) = [o for o in served if o.ok]
            assert set(ok.results) == {f"a{i}" for i in range(len(texts))}

    def test_unregister_to_zero_drops_the_structure_everywhere(self, documents):
        texts = self._aliases()
        with ProcessServicePool(BIB_DTD_STRONG, workers=self.WORKERS) as pool:
            for i, text in enumerate(texts):
                pool.register(text, key=f"a{i}")
            pool.unregister("a0")
            pool.unregister("a1")
            # A live subscriber keeps the structure (no drop yet)...
            assert len(pool.structures) == 1
            (structure,) = pool.structures.values()
            assert structure.refcount == 1
            served = list(pool.serve([documents[0]]))
            assert served[0].ok and set(served[0].results) == {"a2"}
            # ...and releasing the last one drops it parent-side and in
            # every worker: re-registering must ship a fresh artifact.
            pool.unregister("a2")
            assert pool.structures == {}
            shipped = pool.metrics.ship_count
            pool.register(TITLES_QUERY, key="t")
            assert pool.metrics.ship_count == shipped + self.WORKERS
            served = list(pool.serve([documents[0]]))
            assert served[0].ok and set(served[0].results) == {"t"}
            assert pool.worker_compilations() == {0: 0, 1: 0}
