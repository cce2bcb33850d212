"""Accounting for the multi-query service.

Two layers of counters:

* :class:`PassMetrics` — one shared scan: how many events the parser
  produced, how many survived the shared routing index (``events_forwarded``
  counts events at least one query needed — the number PR 1's union filter
  would have broadcast to *every* session), how many were pruned (whole
  irrelevant subtrees) or dropped (character data no query can observe),
  and — per registered query — how many events were actually routed to it
  (``per_query_forwarded``) versus suppressed for it although some other
  query needed them (``per_query_pruned``).  ``events_saved_vs_solo``
  quantifies the point of the service: with N registered queries, N
  independent runs would have parsed the document N times.
* :class:`ServiceMetrics` — service lifetime: registrations, compilations,
  passes, and the running totals across passes (the substrate of the
  serve loop's cumulative accounting; each pass's own numbers ride on the
  :class:`~repro.service.service.ServedDocument` it produced).  Plan-cache
  hit/miss counts live on the cache itself
  (:class:`repro.runtime.plan_cache.CacheStats`) and are merged into
  :meth:`ServiceMetrics.as_dict` by the service.
* :class:`PoolMetrics` — one :class:`~repro.service.pool.ServicePool`'s
  view across its workers: the per-worker :class:`ServiceMetrics` folded
  into fleet totals, plus the pool's own serve-loop accounting (documents
  delivered vs. fault-isolated failures, by worker).  Built on demand by
  :meth:`PoolMetrics.aggregate` from a snapshot of the worker metrics, so
  it carries no live references.

Thread-safety: these dataclasses are plain counters mutated by the single
thread driving the service/pass; they carry no locks.  Read them between
passes (or after ``finish()``), not while a pass is being fed.  A pool
snapshots its workers between their passes (each worker is single-driver
on its own thread).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

#: The pass stage taxonomy, in pipeline order.
PASS_STAGES = ("parse", "route", "evaluate", "emit")


@dataclass
class PassMetrics:
    """Counters for one shared pass over one document."""

    queries: int = 0
    #: Distinct plan structures evaluated (``<= queries``; each structure
    #: runs one evaluator session whose output fans out to its aliases).
    structures: int = 0
    document_bytes: int = 0
    parser_events: int = 0
    events_forwarded: int = 0
    subtrees_pruned: int = 0
    events_pruned: int = 0
    text_events_dropped: int = 0
    elapsed_seconds: float = 0.0
    #: Wall seconds per stage (:data:`PASS_STAGES`), taken structurally by
    #: the one dispatch path: ``parse`` brackets the parser calls,
    #: ``evaluate`` the per-chunk session hand-offs, ``route`` is the rest
    #: of the dispatch call (validation + routing + bucketing), ``emit``
    #: the result collection in ``finish``.  They sum to at most
    #: ``elapsed_seconds``.
    stage_seconds: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PASS_STAGES, 0.0)
    )
    #: Events routed to each query (by registration key); always
    #: ``<= events_forwarded``, strictly less for queries sparser than the
    #: fleet's union interest.
    per_query_forwarded: Dict[str, int] = field(default_factory=dict)
    #: Events some other query needed but this one did not — what the
    #: query saves over PR 1's union-filtered broadcast.
    per_query_pruned: Dict[str, int] = field(default_factory=dict)

    @property
    def events_saved_vs_solo(self) -> int:
        """Parser events avoided versus one independent run per query."""
        return max(0, self.queries - 1) * self.parser_events

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries": self.queries,
            "structures": self.structures,
            "document_bytes": self.document_bytes,
            "parser_events": self.parser_events,
            "events_forwarded": self.events_forwarded,
            "subtrees_pruned": self.subtrees_pruned,
            "events_pruned": self.events_pruned,
            "text_events_dropped": self.text_events_dropped,
            "events_saved_vs_solo": self.events_saved_vs_solo,
            "elapsed_seconds": self.elapsed_seconds,
            "stage_seconds": dict(self.stage_seconds),
            "per_query_forwarded": dict(self.per_query_forwarded),
            "per_query_pruned": dict(self.per_query_pruned),
        }


@dataclass
class ServiceMetrics:
    """Lifetime counters of one :class:`~repro.service.service.QueryService`."""

    queries_registered: int = 0
    queries_unregistered: int = 0
    #: Registrations displaced by re-registering their key.  The live-query
    #: invariant is ``registered - unregistered - replaced == len(service)``.
    queries_replaced: int = 0
    #: Distinct plan structures acquired (first registration of a
    #: structure) and fully released (last alias dropped).  The live-
    #: structure invariant is ``acquired - released == structure count``.
    structures_registered: int = 0
    structures_released: int = 0
    #: Registrations that joined an already-live structure instead of
    #: bringing a new one — the dedup win.
    queries_deduped: int = 0
    passes_completed: int = 0
    parser_events_total: int = 0
    events_forwarded_total: int = 0
    subtrees_pruned_total: int = 0
    events_pruned_total: int = 0
    text_events_dropped_total: int = 0
    elapsed_seconds_total: float = 0.0
    results_produced: int = 0
    last_pass: PassMetrics = field(default_factory=PassMetrics)

    def record_pass(self, pass_metrics: PassMetrics, results: int) -> None:
        """Fold one completed pass into the lifetime totals."""
        self.passes_completed += 1
        self.parser_events_total += pass_metrics.parser_events
        self.events_forwarded_total += pass_metrics.events_forwarded
        self.subtrees_pruned_total += pass_metrics.subtrees_pruned
        self.events_pruned_total += pass_metrics.events_pruned
        self.text_events_dropped_total += pass_metrics.text_events_dropped
        self.elapsed_seconds_total += pass_metrics.elapsed_seconds
        self.results_produced += results
        self.last_pass = pass_metrics

    def as_dict(self) -> Dict[str, float]:
        return {
            "queries_registered": self.queries_registered,
            "queries_unregistered": self.queries_unregistered,
            "queries_replaced": self.queries_replaced,
            "structures_registered": self.structures_registered,
            "structures_released": self.structures_released,
            "queries_deduped": self.queries_deduped,
            "passes_completed": self.passes_completed,
            "parser_events_total": self.parser_events_total,
            "events_forwarded_total": self.events_forwarded_total,
            "subtrees_pruned_total": self.subtrees_pruned_total,
            "events_pruned_total": self.events_pruned_total,
            "text_events_dropped_total": self.text_events_dropped_total,
            "elapsed_seconds_total": self.elapsed_seconds_total,
            "results_produced": self.results_produced,
            "last_pass": self.last_pass.as_dict(),
        }


@dataclass
class PoolMetrics:
    """Aggregated accounting of one :class:`~repro.service.pool.ServicePool`.

    The fleet totals are the sums of the worker services' cumulative
    :class:`ServiceMetrics`; ``documents_ok`` / ``documents_failed`` are the
    pool serve loops' own outcome counters (a failed document is one the
    pool fault-isolated into an error-tagged
    :class:`~repro.service.service.ServedDocument`; its partial pass never
    reaches a worker's ``passes_completed``).  ``per_worker`` keeps the
    breakdown by worker id for shard-balance inspection.
    """

    workers: int = 0
    documents_ok: int = 0
    documents_failed: int = 0
    passes_completed: int = 0
    results_produced: int = 0
    parser_events_total: int = 0
    events_forwarded_total: int = 0
    subtrees_pruned_total: int = 0
    events_pruned_total: int = 0
    text_events_dropped_total: int = 0
    elapsed_seconds_total: float = 0.0
    #: Plan artifacts shipped to worker processes — one per *distinct
    #: structure* per worker send occasion (initial spawns, first
    #: registration of a structure, crash respawns); alias subscriptions
    #: are not counted.  Zero for the in-process backends, which share
    #: plans by reference.
    ship_count: int = 0
    #: Total pickled-plan payload bytes shipped to worker processes.
    ship_bytes: int = 0
    per_worker: List[Dict[str, int]] = field(default_factory=list)

    @property
    def documents_served(self) -> int:
        """Documents the pool delivered, error-tagged ones included."""
        return self.documents_ok + self.documents_failed

    @classmethod
    def aggregate(
        cls,
        worker_metrics: Sequence[ServiceMetrics],
        documents_ok: Mapping[int, int],
        documents_failed: Mapping[int, int],
        ship_count: int = 0,
        ship_bytes: int = 0,
    ) -> "PoolMetrics":
        """Fold per-worker service metrics and outcome counts into totals."""
        pool = cls(workers=len(worker_metrics), ship_count=ship_count,
                   ship_bytes=ship_bytes)
        for worker_id, metrics in enumerate(worker_metrics):
            ok = documents_ok.get(worker_id, 0)
            failed = documents_failed.get(worker_id, 0)
            pool.documents_ok += ok
            pool.documents_failed += failed
            pool.passes_completed += metrics.passes_completed
            pool.results_produced += metrics.results_produced
            pool.parser_events_total += metrics.parser_events_total
            pool.events_forwarded_total += metrics.events_forwarded_total
            pool.subtrees_pruned_total += metrics.subtrees_pruned_total
            pool.events_pruned_total += metrics.events_pruned_total
            pool.text_events_dropped_total += metrics.text_events_dropped_total
            pool.elapsed_seconds_total += metrics.elapsed_seconds_total
            pool.per_worker.append(
                {
                    "worker": worker_id,
                    "documents_ok": ok,
                    "documents_failed": failed,
                    "passes_completed": metrics.passes_completed,
                    "results_produced": metrics.results_produced,
                    "parser_events_total": metrics.parser_events_total,
                }
            )
        return pool

    def as_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "documents_served": self.documents_served,
            "documents_ok": self.documents_ok,
            "documents_failed": self.documents_failed,
            "passes_completed": self.passes_completed,
            "results_produced": self.results_produced,
            "parser_events_total": self.parser_events_total,
            "events_forwarded_total": self.events_forwarded_total,
            "subtrees_pruned_total": self.subtrees_pruned_total,
            "events_pruned_total": self.events_pruned_total,
            "text_events_dropped_total": self.text_events_dropped_total,
            "elapsed_seconds_total": self.elapsed_seconds_total,
            "ship_count": self.ship_count,
            "ship_bytes": self.ship_bytes,
            "per_worker": [dict(entry) for entry in self.per_worker],
        }
