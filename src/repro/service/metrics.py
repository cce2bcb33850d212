"""Accounting for the multi-query service — the one place anything is counted.

Three layers of counters:

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
  :meth:`MetricsPublisher.stats_summary`.
* :class:`PoolMetrics` — one :class:`~repro.service.pool.ServicePool`'s
  view across its workers: the per-worker :class:`ServiceMetrics` folded
  into fleet totals, plus the pool's own serve-loop accounting (documents
  delivered vs. fault-isolated failures, by worker).  Built on demand by
  :meth:`PoolMetrics.aggregate` from a snapshot of the worker metrics, so
  it carries no live references.

The :mod:`repro.obs` metrics registry only *reads* these: a serving face's
:meth:`MetricsPublisher.register_metrics` publishes its lifetime totals
and plan-cache counters as gauges at snapshot time, and
:func:`record_pass_durations` pushes each finished pass's stage and pass
durations into the two latency histograms — the one number a gauge cannot
carry is a distribution.

Thread-safety: these dataclasses are plain counters mutated by the single
thread driving the service/pass; they carry no locks.  Read them between
passes (or after ``finish()``), not while a pass is being fed.  A pool
snapshots its workers between their passes (each worker is single-driver
on its own thread).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Sequence

#: The pass stage taxonomy, in pipeline order.
PASS_STAGES = ("parse", "route", "evaluate", "emit")

#: Lifetime totals folded from every completed pass, by the
#: :class:`PassMetrics` field each one sums.
_PASS_TOTALS = {
    "parser_events_total": "parser_events",
    "document_bytes_total": "document_bytes",
    "events_forwarded_total": "events_forwarded",
    "subtrees_pruned_total": "subtrees_pruned",
    "events_pruned_total": "events_pruned",
    "skipped_subtrees_total": "skipped_subtrees",
    "skipped_bytes_total": "skipped_bytes",
    "text_events_dropped_total": "text_events_dropped",
    "elapsed_seconds_total": "elapsed_seconds",
}


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
    #: Pruned subtrees the parser skipped without building their events
    #: (also counted in ``subtrees_pruned``), and the characters they span.
    skipped_subtrees: int = 0
    skipped_bytes: int = 0
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

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "events_saved_vs_solo": self.events_saved_vs_solo}


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
    document_bytes_total: int = 0
    events_forwarded_total: int = 0
    subtrees_pruned_total: int = 0
    events_pruned_total: int = 0
    text_events_dropped_total: int = 0
    skipped_subtrees_total: int = 0
    skipped_bytes_total: int = 0
    elapsed_seconds_total: float = 0.0
    results_produced: int = 0
    last_pass: PassMetrics = field(default_factory=PassMetrics)

    def record_pass(self, pass_metrics: PassMetrics, results: int) -> None:
        """Fold one completed pass into the lifetime totals."""
        self.passes_completed += 1
        for total, counter in _PASS_TOTALS.items():
            setattr(self, total, getattr(self, total) + getattr(pass_metrics, counter))
        self.results_produced += results
        self.last_pass = pass_metrics

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "last_pass": self.last_pass.as_dict()}


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
    document_bytes_total: int = 0
    events_forwarded_total: int = 0
    subtrees_pruned_total: int = 0
    events_pruned_total: int = 0
    text_events_dropped_total: int = 0
    skipped_subtrees_total: int = 0
    skipped_bytes_total: int = 0
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
            for total in ("passes_completed", "results_produced", *_PASS_TOTALS):
                setattr(pool, total, getattr(pool, total) + getattr(metrics, total))
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
        return {**asdict(self), "documents_served": self.documents_served}


class MetricsPublisher:
    """The reporting half every serving face shares.

    Mixed into :class:`~repro.service.service.QueryService`,
    :class:`~repro.service.async_service.AsyncQueryService` and
    :class:`~repro.service.pool_core.PoolCore`, each of which exposes a
    ``metrics`` dataclass (:class:`ServiceMetrics` / :class:`PoolMetrics`)
    and a ``plan_cache``; ``_metrics_prefix`` names its gauge family.
    """

    _metrics_prefix = "repro_service"

    def stats_summary(self) -> Dict[str, object]:
        """Lifetime metrics plus plan-cache counters, for logs and benches."""
        summary = self.metrics.as_dict()
        summary["plan_cache"] = self.plan_cache.stats.as_dict()
        summary["plan_cache"]["size"] = len(self.plan_cache)
        return summary

    def register_metrics(self, registry) -> None:
        """Publish :meth:`stats_summary` into ``registry`` at every snapshot.

        ``registry`` is a :class:`repro.obs.MetricsRegistry`; a pull-style
        collector re-reads the live counters on each ``snapshot()`` /
        ``to_prometheus()`` and sets one gauge per numeric scalar:
        ``<prefix>_*`` for the lifetime totals and ``repro_plan_cache_*``
        for the cache (nested breakdowns stay in :meth:`stats_summary`).
        The counters themselves are never duplicated into the registry.
        """

        def collect(reg) -> None:
            summary = self.stats_summary()
            reg.set_from_dict(self._metrics_prefix, summary)
            reg.set_from_dict("repro_plan_cache", summary["plan_cache"])

        registry.add_collector(collect)


def record_pass_durations(obs, pass_metrics: PassMetrics) -> None:
    """Push one finished pass's stage and pass durations into ``obs``'s
    metrics registry (a no-op without one).

    The only push into the registry: called by
    :meth:`~repro.service.session.SharedPass.finish` where passes run in
    the registry's process, and by the process pool's parent for each pass
    a worker ships home — the histograms come from the very
    :attr:`PassMetrics.stage_seconds` every served document carries.
    """
    if obs is None or obs.metrics is None:
        return
    stages = obs.metrics.histogram(
        "repro_stage_duration_seconds",
        "Per-pass duration of each pipeline stage, in seconds.",
    )
    for stage in PASS_STAGES:
        stages.observe(pass_metrics.stage_seconds[stage], stage=stage)
    obs.metrics.histogram(
        "repro_pass_duration_seconds", "End-to-end duration of one shared pass."
    ).observe(pass_metrics.elapsed_seconds)
