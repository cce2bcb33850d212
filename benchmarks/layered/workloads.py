"""The four workloads of the layered benchmark, their inputs and their oracle.

Everything the program under test sees is made here from ``--seed``:
documents come from ``repro.workloads`` generators, fleets from
``repro.bench.fleets.make_fleet``.  The oracle is ``DomEngine`` — the
in-memory evaluation the paper compares against — never the engine whose
time is being reported.
"""

from __future__ import annotations

import hashlib
import io
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro import DomEngine, FluxEngine, QueryService
from repro.bench.fleets import FleetQuery, make_fleet
from repro.engines.base import QueryResult
from repro.workloads import (
    AUCTION_DTD,
    BIB_DTD_STRONG,
    generate_auction_site,
    generate_bibliography,
    get_query,
)

BIB_KEYS = ("BIB-Q1", "BIB-Q2", "BIB-Q3", "BIB-Q4", "BIB-Q5", "BIB-Q6")
AUCTION_KEYS = ("AUC-A1", "AUC-A2", "AUC-A3", "AUC-A4")

#: A pass with more registrations than this is verified on one key per
#: structure plus a seeded sample, not on every key.
FULL_CHECK_LIMIT = 64
ALIAS_SAMPLE = 25


@dataclass(frozen=True)
class Workload:
    """One named set of inputs; sizes are chosen so one op lasts 15-170 ms."""

    name: str
    why: str
    #: ``True``: each query is executed on its own through ``FluxEngine``
    #: (the paper's model).  ``False``: all registrations share one
    #: ``QueryService`` pass per document.
    solo: bool
    #: ``"bib"`` (size = books per document) or ``"xmark"`` (size = scale).
    corpus: str
    size: float
    query_keys: Tuple[str, ...]
    registrations: int
    documents: int
    warmup_ops: int
    #: Set-ups timed per run (this process plus set-up-only children).
    setup_samples: int
    #: The traced run fails below this ``trace.coverage_share``: the stage
    #: replay would be missing a layer.  0 where per-event stages are not
    #: where the time goes (10k aliases).
    min_coverage: float

    @property
    def dtd(self) -> str:
        return BIB_DTD_STRONG if self.corpus == "bib" else AUCTION_DTD

    @property
    def bases(self) -> List[str]:
        return [get_query(key).xquery for key in self.query_keys]

    def fleet(self) -> List[FleetQuery]:
        """The registrations: aliases of the base queries, round-robin."""
        return make_fleet(self.bases, self.registrations)

    def make_documents(self, seed: int) -> List[str]:
        documents = []
        for i in range(self.documents):
            doc_seed = seed * 1000 + i
            if self.corpus == "bib":
                documents.append(
                    generate_bibliography(num_books=int(self.size), seed=doc_seed)
                )
            else:
                documents.append(generate_auction_site(scale=self.size, seed=doc_seed))
        return documents


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="solo_bib",
            why=(
                "six bib queries run solo through FluxEngine: parser, XSAX, evaluator "
                "and serializer do all the work; validator stage, route, dispatch and "
                "session do none"
            ),
            solo=True,
            corpus="bib",
            size=160,
            query_keys=BIB_KEYS,
            registrations=len(BIB_KEYS),
            documents=8,
            warmup_ops=3,
            setup_samples=5,
            min_coverage=0.85,
        ),
        Workload(
            name="fleet_bib6",
            why=(
                "the same six queries on one inline QueryService pass: the full "
                "seven-stage pipeline, one parse amortized over six evaluations"
            ),
            solo=False,
            corpus="bib",
            size=300,
            query_keys=BIB_KEYS,
            registrations=len(BIB_KEYS),
            documents=8,
            warmup_ops=3,
            setup_samples=5,
            min_coverage=0.85,
        ),
        Workload(
            name="fleet_alias10k",
            why=(
                "10k aliases of four auction structures over small documents: per-alias "
                "work in register, finish fan-out and metrics dominates; parser and "
                "evaluator are small; the only workload with a large setup_s"
            ),
            solo=False,
            corpus="xmark",
            size=0.1,
            query_keys=AUCTION_KEYS,
            registrations=10_000,
            documents=8,
            warmup_ops=20,
            setup_samples=3,
            min_coverage=0.0,
        ),
        Workload(
            name="join_xmark",
            why=(
                "AUC-A3 value join solo on larger XMark documents: the buffered half "
                "(runtime.buffers + TreeEvaluator over buffered subtrees); the only "
                "workload with a non-trivial peak_buffer_bytes"
            ),
            solo=True,
            corpus="xmark",
            size=2.0,
            query_keys=("AUC-A3",),
            registrations=1,
            documents=8,
            warmup_ops=3,
            setup_samples=5,
            min_coverage=0.0,
        ),
    )
}


class SoloProgram:
    """The paper's model: one compiled plan per query, one parse per execution."""

    def __init__(self, workload: Workload, fleet: Sequence[FleetQuery]):
        self.engine = FluxEngine(workload.dtd)
        self.compiled = [(q.key, self.engine.compile(q.text)) for q in fleet]

    def run(self, document: str) -> Dict[str, QueryResult]:
        return {key: compiled.execute(document) for key, compiled in self.compiled}


class FleetProgram:
    """All registrations on one inline service; one shared pass per document."""

    def __init__(self, workload: Workload, fleet: Sequence[FleetQuery]):
        self.service = QueryService(workload.dtd, validate=True, execution="inline")
        for query in fleet:
            self.service.register(query.text, key=query.key)

    def run(self, document: str) -> Dict[str, QueryResult]:
        return self.service.run_pass(io.StringIO(document))


def build_program(workload: Workload, fleet: Sequence[FleetQuery]):
    return (SoloProgram if workload.solo else FleetProgram)(workload, fleet)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Oracle:
    """Reference outputs by ``DomEngine``, kept as SHA-256 digests.

    A pass is right when it returns one result per registration and every
    checked key's output digest equals the DOM digest of its base query on
    that document.
    """

    def __init__(self, workload: Workload, fleet: Sequence[FleetQuery], seed: int):
        self.registrations = len(fleet)
        self._structure = {q.key: q.structure for q in fleet}
        if len(fleet) <= FULL_CHECK_LIMIT:
            self.keys = [q.key for q in fleet]
        else:
            first_of_structure = fleet[: len(workload.bases)]
            sample = random.Random(seed).sample(fleet, ALIAS_SAMPLE)
            self.keys = [q.key for q in (*first_of_structure, *sample)]
        self._workload = workload
        self._references: List[List[str]] = []
        self.dom_peak_buffer_bytes = 0

    def compute(self, documents: Sequence[str]) -> None:
        """Run the DOM engine over every (base query, document) pair."""
        dom = DomEngine(self._workload.dtd)
        for document in documents:
            row = []
            for base in self._workload.bases:
                result = dom.execute(base, document)
                row.append(digest(result.output))
                self.dom_peak_buffer_bytes = max(
                    self.dom_peak_buffer_bytes, result.peak_buffer_bytes
                )
            self._references.append(row)

    def observe(self, results: Dict[str, QueryResult]) -> Tuple[int, Tuple[str, ...]]:
        """What one pass returned, reduced to what :meth:`agrees` compares."""
        return len(results), tuple(
            digest(results[key].output) if key in results else "" for key in self.keys
        )

    def agrees(self, doc_index: int, observed: Tuple[int, Tuple[str, ...]]) -> bool:
        count, digests = observed
        reference = self._references[doc_index]
        return count == self.registrations and all(
            got == reference[self._structure[key]]
            for key, got in zip(self.keys, digests)
        )
