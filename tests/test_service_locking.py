"""Regression tests for the SharedPass cross-thread state transitions.

``abort()`` is the one SharedPass entry point documented as callable from
any thread (a pool driver may abort a pass its worker is feeding), so the
aborted/closed flips are lock-protected test-and-sets.  These tests pin
the two effects that the ``_state_lock`` makes exactly-once — the
``pass.abort`` log event and the service's active-pass slot release — and
prove the locking leaves pass output byte-identical to a solo engine run.
``TestAbortWhileFeeding`` pins the other half of the contract: an abort
that lands while the feeding thread is inside ``feed`` — in the parser, in
the router, or inside a session's running generator — never raises, and
the interrupted call raises the ``ValueError`` the next call would.
"""

import threading
import time

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.obs import MemoryLogger, Observability
from repro.runtime.evaluator import _InlineSource
from repro.service import QueryService
from repro.service.session import SharedPass
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload

from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD, PAPER_Q3


def make_service(obs=None):
    service = QueryService(PAPER_FIGURE1_DTD, obs=obs)
    service.register(PAPER_Q3, key="q")
    return service


class TestAbortStorm:
    def test_concurrent_aborts_log_pass_abort_once(self):
        logger = MemoryLogger()
        service = make_service(obs=Observability(logger=logger))
        shared_pass = service.open_pass()
        barrier = threading.Barrier(8)

        def storm():
            barrier.wait()
            shared_pass.abort()

        threads = [threading.Thread(target=storm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        abort_events = [e for e in logger.events if e["event"] == "pass.abort"]
        assert len(abort_events) == 1
        assert shared_pass.aborted

    def test_concurrent_aborts_release_the_slot_once(self):
        closes = []
        service = make_service()
        registrations = list(service._registrations.values())
        shared_pass = SharedPass(
            registrations,
            service.dtd,
            service.validate,
            on_close=closes.append,
        )
        barrier = threading.Barrier(8)

        def storm():
            barrier.wait()
            shared_pass.abort()

        threads = [threading.Thread(target=storm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert closes == [shared_pass]

    def test_storm_over_a_half_fed_pass(self):
        # Same exactly-once effects when the sessions hold suspended
        # generators with buffered state (eight racing close() calls).
        closes = []
        logger = MemoryLogger()
        service = make_service()
        shared_pass = SharedPass(
            list(service._registrations.values()),
            service.dtd,
            service.validate,
            on_close=closes.append,
            obs=Observability(logger=logger),
        )
        shared_pass.feed(PAPER_DOCUMENT[: len(PAPER_DOCUMENT) // 2])
        before = threading.active_count()
        barrier = threading.Barrier(8)
        raised = []

        def storm():
            barrier.wait()
            try:
                shared_pass.abort()
            except BaseException as exc:  # recorded; the assert names it
                raised.append(exc)

        threads = [threading.Thread(target=storm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert raised == []
        assert closes == [shared_pass]
        assert len([e for e in logger.events if e["event"] == "pass.abort"]) == 1
        assert all(run.session._generator is None for run in shared_pass._runs)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="on an aborted pass"):
            shared_pass.feed(PAPER_DOCUMENT[len(PAPER_DOCUMENT) // 2 :])

    def test_abort_after_finish_does_not_reclose(self):
        closes = []
        service = make_service()
        registrations = list(service._registrations.values())
        shared_pass = SharedPass(
            registrations,
            service.dtd,
            service.validate,
            on_close=closes.append,
        )
        shared_pass.feed(PAPER_DOCUMENT)
        results = shared_pass.finish()
        assert "q" in results
        shared_pass.abort()
        assert closes == [shared_pass]

    def test_aborted_pass_frees_the_service_for_a_new_pass(self):
        service = make_service()
        shared_pass = service.open_pass()
        threads = [threading.Thread(target=shared_pass.abort) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = service.run_pass(PAPER_DOCUMENT)
        assert results["q"].output


def make_bib_service():
    service = QueryService(BIB_DTD_STRONG)
    for spec in queries_for_workload("bib"):
        service.register(spec.xquery, key=spec.key)
    return service


class TestAbortWhileFeeding:
    def test_abort_landing_inside_a_running_generator(self, monkeypatch):
        # Deterministic: the abort is issued (and runs to completion) on a
        # second thread from inside the evaluation generator's own input
        # pull, i.e. while that generator is executing on the feeder.
        service = make_bib_service()
        document = generate_bibliography(num_books=40, seed=3)
        shared_pass = service.open_pass()
        feeder = threading.current_thread()
        abort_errors = []
        landed = []

        def abort_elsewhere():
            try:
                shared_pass.abort()
            except BaseException as exc:
                abort_errors.append(exc)

        real_next = _InlineSource.__next__

        def aborting_next(source):
            if not landed and threading.current_thread() is feeder:
                landed.append(True)
                aborter = threading.Thread(target=abort_elsewhere)
                aborter.start()
                aborter.join(timeout=30)
                assert not aborter.is_alive()
            return real_next(source)

        before = threading.active_count()
        monkeypatch.setattr(_InlineSource, "__next__", aborting_next)
        with pytest.raises(ValueError, match=r"feed\(\) on an aborted pass"):
            shared_pass.feed(document)
        monkeypatch.undo()
        assert landed and abort_errors == []
        assert shared_pass.aborted and service.active_pass is None
        # The generator that was running was closed by the feeder itself.
        assert all(run.session._generator is None for run in shared_pass._runs)
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="on an aborted pass"):
            shared_pass.finish()
        assert len(service.run_pass(document)) == len(queries_for_workload("bib"))

    def test_abort_from_another_thread_at_any_moment(self):
        # Sweep the abort across one large feed so it lands in the parser,
        # in the router and inside session hand-offs.
        service = make_bib_service()
        document = generate_bibliography(num_books=300, seed=3)
        started = time.perf_counter()
        expected = len(service.run_pass(document))
        undisturbed = time.perf_counter() - started
        before = threading.active_count()
        steps = 12
        interrupted = 0
        for step in range(1, steps + 1):
            shared_pass = service.open_pass()
            outcome = []

            def feeder():
                try:
                    shared_pass.feed(document)
                    outcome.append(len(shared_pass.finish()))
                except BaseException as exc:
                    outcome.append(exc)

            thread = threading.Thread(target=feeder)
            thread.start()
            time.sleep(undisturbed * step / (steps + 1))
            shared_pass.abort()  # must never raise
            thread.join(timeout=60)
            assert not thread.is_alive()
            (result,) = outcome
            if result != expected:  # the abort won the race
                assert isinstance(result, ValueError), repr(result)
                assert "on an aborted pass" in str(result)
                interrupted += 1
            assert shared_pass.aborted
            assert service.active_pass is None
            assert all(run.session._generator is None for run in shared_pass._runs)
        assert interrupted > 0
        assert threading.active_count() == before
        assert len(service.run_pass(document)) == expected


class TestOutputUnchangedByLocking:
    def test_pass_output_is_byte_identical_to_solo_engine(self):
        solo = FluxEngine(PAPER_FIGURE1_DTD).execute(PAPER_Q3, PAPER_DOCUMENT)
        service = make_service()
        shared = service.run_pass(PAPER_DOCUMENT)["q"]
        assert shared.output == solo.output

    def test_output_identical_after_an_aborted_predecessor(self):
        service = make_service()
        doomed = service.open_pass()
        doomed.feed(PAPER_DOCUMENT[: len(PAPER_DOCUMENT) // 2])
        doomed.abort()
        solo = FluxEngine(PAPER_FIGURE1_DTD).execute(PAPER_Q3, PAPER_DOCUMENT)
        assert service.run_pass(PAPER_DOCUMENT)["q"].output == solo.output
