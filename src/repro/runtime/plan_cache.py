"""LRU cache of compiled query plans — the single compilation gateway.

Compiling the same query text twice — in one :class:`~repro.engines
.flux_engine.FluxEngine`, across repeated :meth:`~repro.service.service
.QueryService.register` calls, or in two services/engines sharing a cache —
must not pay the optimizer twice.  This module lives in ``repro.runtime``
(not ``repro.service``) on purpose: both the single-query engine layer and
the multi-query service layer compile through *one* cache type, and placing
it beside the compiler keeps the dependency arrow pointing downward
(``engines → runtime`` and ``service → runtime``; never ``engines →
service``).  Plans are cached under ``(query text, DTD fingerprint)``:

* the *query text* because compilation is deterministic in it (given a
  pipeline configuration),
* the *DTD fingerprint* (:meth:`repro.dtd.schema.DTD.fingerprint`) because
  every stage of the pipeline — algebraic rewriting, scheduling, the BDF,
  XSAX condition registration — bakes schema constraints into the plan.  A
  plan compiled under one DTD is wrong (not merely suboptimal) under
  another, so a schema change is a cache miss by construction.

Because compilation is deterministic only *given a pipeline configuration*,
the key carries a third component: the pipeline's ablation-switch digest
(:meth:`~repro.core.optimizer.OptimizerPipeline.config_fingerprint`).  An
ablation pipeline therefore never shares entries with the default one.

The cache is bounded and LRU-evicting, thread-safe (all entry reads and
writes — including ``len()`` and ``in`` — hold the cache lock), and exposes
hit/miss/eviction counters for the service metrics.  Concurrent
:meth:`PlanCache.get_or_compile` misses on the same key are *single-flight*:
one caller compiles while the others wait for (and share) its plan, so a
thundering herd of identical registrations pays the optimizer once.
A new text that is an alias of a cached plan (same :func:`structure_key`,
computed from the parsed AST) is stored as that plan without optimizing.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, cast

from repro.core.optimizer import OptimizerPipeline
from repro.dtd.schema import DTD
from repro.runtime.compiler import CompiledQueryPlan, compile_query
from repro.xquery.ast import ForExpr, LetExpr, VarRef, XQueryExpr
from repro.xquery.parser import parse_xquery

#: Fingerprint stand-in for "no schema" (plans then use maximal buffering).
NO_DTD_FINGERPRINT = "no-dtd"

#: Configuration digest of a default (all optimizations on) pipeline.
DEFAULT_PIPELINE_CONFIG = OptimizerPipeline().config_fingerprint()


def dtd_fingerprint(dtd: Optional[DTD]) -> str:
    """The cache-key component for a schema (``None`` allowed)."""
    return dtd.fingerprint() if dtd is not None else NO_DTD_FINGERPRINT


def cache_key(
    query: str, dtd: Optional[DTD], config: str = DEFAULT_PIPELINE_CONFIG
) -> Tuple[str, str, str]:
    """The cache key for ``query`` compiled under ``dtd`` and ``config``."""
    return (query, dtd_fingerprint(dtd), config)


# --------------------------------------------------------- structure keys
#
# Query texts that differ only in whitespace or bound-variable names compile
# to the *same* computation, which the multi-query service evaluates once and
# fans out.  The structure key names it: a canonical serialization of the
# *parsed* AST, ``for``/``let`` variables α-renamed by scope, joined with the
# DTD fingerprint and pipeline config.  Free variables are kept verbatim:
# only ``$ROOT`` is streamed, and any other is an error naming it.  The
# physical plan — and with it the routing profile — is a deterministic
# function of exactly those inputs, so equal keys mean identical plans, and
# the key can be computed (and looked up) before the optimizer runs.

#: Field kinds of the key walk: a subtree, a variable use, a bound variable.
_PLAIN, _USE, _BIND = 0, 1, 2
#: Binding constructs, by the field their variable ranges over (outside its
#: scope; the fields after it are inside).
_BINDER_DOMAINS = {ForExpr: "source", LetExpr: "value"}
#: A dataclass type's fields as the key walk renders them, a bound variable
#: after its domain: ``((" name=", name, kind), ...)``.
_Fields = Tuple[Tuple[str, str, int], ...]
#: ``_Fields`` of every type the key walk has met (``None`` for types that
#: are not dataclasses): ``dataclasses.fields`` is too slow per AST node.
_CANON_FIELDS: Dict[type, Optional[_Fields]] = {}


def _canon_fields(cls: type) -> Optional[_Fields]:
    fields: Optional[_Fields] = None
    if dataclasses.is_dataclass(cls):
        names = [info.name for info in dataclasses.fields(cls)]
        if cls in _BINDER_DOMAINS:
            names.remove("var")
            names.insert(names.index(_BINDER_DOMAINS[cls]) + 1, "var")
        variables = {"var", "name"} if issubclass(cls, VarRef) else {"var"}
        kind = _BIND if cls in _BINDER_DOMAINS else _USE
        fields = tuple((f" {n}=", n, kind if n in variables else _PLAIN) for n in names)
    _CANON_FIELDS[cls] = fields
    return fields


def _canon_value(value: object, scope: Dict[str, str], depth: int, out: List[str]) -> None:
    """Append a canonical, unambiguous rendering of ``value`` to ``out``.

    Handles exactly the value vocabulary of the AST dataclasses: nested
    dataclasses (class name + fields), tuples and scalar leaves.  A bound
    variable becomes ``v<depth>`` (``depth`` counts the binders around it)
    and ``scope`` maps each name in scope to that; a free one is ``$name``.
    """
    cls = type(value)
    fields = _CANON_FIELDS[cls] if cls in _CANON_FIELDS else _canon_fields(cls)
    if fields is not None:
        out.append(f"({cls.__name__}")
        for label, field_name, kind in fields:
            out.append(label)
            field_value = getattr(value, field_name)
            if kind == _PLAIN:
                _canon_value(field_value, scope, depth, out)
            elif kind == _USE:
                out.append(scope.get(field_value) or "$" + field_value)
            else:
                scope = {**scope, field_value: f"v{depth}"}
                depth += 1
                out.append(scope[field_value])
        out.append(")")
    elif isinstance(value, tuple):
        out.append("[")
        for item in value:
            _canon_value(item, scope, depth, out)
            out.append(",")
        out.append("]")
    else:
        # Scalar leaf (str/int/float/None): repr is unambiguous.
        out.append(repr(value))


def _parsed_structure_key(parsed: XQueryExpr, dtd_print: str, config: str) -> str:
    """The :func:`structure_key` of a parsed query in a ``(DTD, config)`` world."""
    out: List[str] = []
    _canon_value(parsed, {}, 0, out)
    digest = hashlib.sha256("".join(out).encode("utf-8")).hexdigest()
    return f"{digest}:{dtd_print}:{config}"


def structure_key(entry: CompiledQueryPlan) -> str:
    """The structural identity of a compiled plan.

    Equal keys mean the entries are the same computation — identical
    parsed ASTs up to a consistent renaming of bound variables, under the same
    DTD fingerprint and pipeline configuration — so a shared pass may
    evaluate one of them and serve the output to every registrant of the
    other.  Memoized on the entry; the memo is never pickled
    (:meth:`CompiledQueryPlan.__getstate__`), so a loaded plan is keyed by
    this build's definition.
    """
    cached = entry.__dict__.get("_structure_key")
    if cached is None:
        cached = entry.__dict__["_structure_key"] = _parsed_structure_key(
            entry.optimized.parsed, dtd_fingerprint(entry.dtd), entry.pipeline_config
        )
    return cast(str, cached)


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`PlanCache`.

    ``misses`` counts lookups that found no entry and did not share an
    in-progress compilation.  Through :meth:`PlanCache.get_or_compile` —
    the only lookup the engine and service layers use — every such miss is
    one parse (the single-flight leader), and one optimizer run unless the
    parsed query is an alias of a cached structure: that miss is also
    counted ``interned`` and compiles nothing.  Bare :meth:`PlanCache.get`
    probes also count their failures here.  A concurrent
    ``get_or_compile`` that found no entry but shared a
    leader's in-progress compilation is ``coalesced`` instead — it got its
    plan without compiling, exactly like a hit, so lumping it into
    ``misses`` would under-report ``hit_rate`` precisely in the
    thundering-herd case the single-flight machinery exists for.
    Followers of a flight whose compilation *failed* are counted nowhere:
    they re-raise the leader's error, and a failing cache must not look
    healthy in ``hit_rate``.

    The counters are mutated only while the owning cache holds its lock, so
    reads from other threads see internally consistent values; the object
    itself carries no lock and must not be shared between caches.
    """

    hits: int = 0
    misses: int = 0
    #: Lookups that joined another caller's in-progress compilation instead
    #: of compiling themselves (single-flight followers).
    coalesced: int = 0
    evictions: int = 0
    #: Entries inserted by :meth:`PlanCache.load` (warm-start, not lookups:
    #: they affect no hit/miss accounting, but a restarted service wants to
    #: know how many compilations its snapshot spared it).
    preloaded: int = 0
    #: Text keys served an already-cached plan of the same
    #: :func:`structure_key`, found before optimizing (or after, when two
    #: aliases raced): one plan object shared between keys instead of
    #: stored twice — the substrate of the service layer's fleet dedup.
    interned: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a compilation (hit or coalesced)."""
        return (self.hits + self.coalesced) / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "preloaded": self.preloaded,
            "interned": self.interned,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class PlanArtifact:
    """One compiled plan, serialized for shipping or persistence.

    The unit two machineries share:

    * the **multi-process service pool** ships artifacts from the parent's
      cache to worker processes over a registration channel, so workers
      reconstruct plans without ever running the optimizer;
    * :meth:`PlanCache.dump` / :meth:`PlanCache.load` persist a cache as a
      list of artifacts, so a restarted service warm-starts instead of
      recompiling its standing queries.

    The identifying components (``source``, ``dtd_fingerprint``,
    ``pipeline_config``) are carried *beside* the pickled plan — they are
    exactly the cache key, so a receiver can place (or reject) an artifact
    without unpickling ``payload`` first.  ``payload`` is the pickled
    :class:`~repro.runtime.compiler.CompiledQueryPlan`; ``len(payload)`` is
    the shipping cost a pool reports as ``ship_bytes``.
    """

    source: str
    dtd_fingerprint: str
    pipeline_config: str
    payload: bytes

    @classmethod
    def from_plan(cls, entry: CompiledQueryPlan) -> "PlanArtifact":
        """Serialize one compiled plan (the plan embeds its own DTD)."""
        return cls(
            source=entry.source,
            dtd_fingerprint=dtd_fingerprint(entry.dtd),
            pipeline_config=entry.pipeline_config,
            payload=pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @property
    def key(self) -> Tuple[str, str, str]:
        """The :func:`cache_key` this artifact fills."""
        return (self.source, self.dtd_fingerprint, self.pipeline_config)

    def load_plan(self) -> CompiledQueryPlan:
        """Reconstruct the compiled plan (no optimizer run)."""
        entry = pickle.loads(self.payload)
        if not isinstance(entry, CompiledQueryPlan):
            raise TypeError(
                f"plan artifact payload unpickled to {type(entry).__name__}, "
                "not a CompiledQueryPlan"
            )
        return entry


class _Flight:
    """One in-progress compilation shared by concurrent cache misses."""

    __slots__ = ("done", "entry", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: Optional[CompiledQueryPlan] = None
        self.error: Optional[BaseException] = None
        #: How many callers joined this flight (telemetry for tests; the
        #: ``coalesced`` stat counts only followers actually served).
        self.followers = 0


def _clone_exception(error: BaseException) -> Optional[BaseException]:
    """A fresh exception instance equivalent to ``error``, or ``None``.

    Re-raising one exception instance from several follower threads makes
    their tracebacks stomp each other: every ``raise`` splices new frames
    onto the *shared* ``__traceback__``.  Each follower therefore gets its
    own copy (traceback cleared, so only that follower's raise site grows
    it).  Exotic exception types whose constructors defeat ``copy.copy``
    return ``None`` — the caller then falls back to the shared instance.
    """
    try:
        clone = copy.copy(error)
    except Exception:
        return None
    if clone is error or type(clone) is not type(error):
        return None
    clone.__traceback__ = None
    return clone


class PlanCache:
    """Bounded LRU cache of :class:`~repro.runtime.compiler.CompiledQueryPlan`.

    A single cache can back several services (or engines) at once: entries
    from different schemas coexist because the fingerprint is part of the
    key.  ``capacity`` bounds the number of cached plans; the least recently
    *used* (looked up or inserted) entry is evicted first.

    Thread-safety: every public method (including ``len()`` and ``in``) is
    safe to call from any thread; entry reads and writes hold the cache
    lock, and compilation itself runs outside it (see
    :meth:`get_or_compile`).  Lifecycle: the cache has no close step — it
    may outlive every engine and service using it, and :meth:`clear` only
    drops entries, never in-flight compilations.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[str, str, str], CompiledQueryPlan]" = OrderedDict()
        self._lock = threading.Lock()
        # In-progress compilations, for single-flight get_or_compile().
        self._inflight: Dict[Tuple[str, str, str], "_Flight"] = {}
        # Structural interning: one canonical plan object per structure
        # key, shared by every alias key that inserts an equal structure;
        # refcounts keep the canonical alive exactly as long as some cache
        # entry uses it.  All three maps are guarded by the cache lock.
        self._structure_entries: Dict[str, CompiledQueryPlan] = {}
        self._structure_refs: Dict[str, int] = {}
        self._entry_structures: Dict[Tuple[str, str, str], str] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple[str, str, str]) -> bool:
        with self._lock:
            return key in self._entries

    def get(
        self,
        query: str,
        dtd: Optional[DTD],
        config: str = DEFAULT_PIPELINE_CONFIG,
    ) -> Optional[CompiledQueryPlan]:
        """The cached plan for ``(query, dtd, config)``, or ``None`` (a miss)."""
        key = cache_key(query, dtd, config)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def _insert_locked(
        self,
        key: Tuple[str, str, str],
        entry: CompiledQueryPlan,
        skey: str,
    ) -> CompiledQueryPlan:
        """Store ``entry`` under ``key``, interning by structure.

        Caller holds the cache lock.  ``key`` may differ from the entry's
        own source key (snapshot alias records); the structure maps track
        how many live cache entries share each canonical plan so eviction
        never strands (or prematurely drops) a shared object.
        """
        canonical = self._structure_entries.get(skey)
        if canonical is not None:
            if canonical is not entry:
                self.stats.interned += 1
                entry = canonical
        else:
            self._structure_entries[skey] = entry
        if key in self._entries:
            self._entries.move_to_end(key)
            old_skey = self._entry_structures[key]
            if old_skey != skey:
                self._release_structure_locked(old_skey)
                self._entry_structures[key] = skey
                self._structure_refs[skey] = self._structure_refs.get(skey, 0) + 1
            self._entries[key] = entry
            return entry
        while len(self._entries) >= self.capacity:
            evicted_key, _ = self._entries.popitem(last=False)
            self._release_structure_locked(self._entry_structures.pop(evicted_key))
            self.stats.evictions += 1
        # Eviction may have just dropped the canonical this entry interned
        # against (the evictee was its last holder); re-seed it so the
        # structure table always maps skey → the object live entries share.
        self._structure_entries.setdefault(skey, entry)
        self._entries[key] = entry
        self._entry_structures[key] = skey
        self._structure_refs[skey] = self._structure_refs.get(skey, 0) + 1
        return entry

    def _release_structure_locked(self, skey: str) -> None:
        """Drop one cache entry's claim on a canonical plan (lock held)."""
        refs = self._structure_refs.get(skey, 0) - 1
        if refs <= 0:
            self._structure_refs.pop(skey, None)
            self._structure_entries.pop(skey, None)
        else:
            self._structure_refs[skey] = refs

    def structure_count(self) -> int:
        """How many distinct plan structures the cached entries span."""
        with self._lock:
            return len(self._structure_entries)

    def get_or_compile(
        self,
        query: str,
        pipeline: OptimizerPipeline,
    ) -> Tuple[CompiledQueryPlan, bool]:
        """``(plan, from_cache)`` for ``query`` under ``pipeline``'s schema
        and configuration, compiling (and caching) the plan on a miss.

        Concurrent misses on the same key compile once: the first caller
        (the *leader*) parses the text outside the cache lock while
        followers wait on its flight and share the plan.  A cached plan
        with the parsed query's :func:`structure_key` is stored under the
        new text (``interned``); otherwise the leader compiles its AST.
        ``from_cache`` says whether *this* call was served without a
        leader's work — a hit, or a followed flight — even when callers
        race.  Stats mirror that split: a leader is the only ``miss``;
        followers are ``coalesced``, keeping ``hit_rate`` honest under a
        thundering herd of identical registrations.  A leader's error
        propagates to its followers — each raises its *own* copy (chained
        to the leader's original via ``__cause__``) so concurrent
        tracebacks cannot stomp each other; the flight is cleared, so
        later calls retry.
        """
        key = cache_key(query, pipeline.dtd, pipeline.config_fingerprint())
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry, True
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = _Flight()
                leader = True
                self.stats.misses += 1
            else:
                leader = False
                flight.followers += 1
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                clone = _clone_exception(flight.error)
                if clone is None:
                    raise flight.error
                raise clone from flight.error
            # Counted only now, plan in hand: a follower of a *failed*
            # flight must not inflate hit_rate.
            with self._lock:
                self.stats.coalesced += 1
            return flight.entry, True
        try:
            parsed = parse_xquery(query)
            skey = _parsed_structure_key(parsed, key[1], key[2])
            with self._lock:
                entry = self._structure_entries.get(skey)
                if entry is not None:
                    # An alias of a cached structure: no optimizer run.
                    self.stats.interned += 1
                    self._insert_locked(key, entry, skey)
            if entry is None:
                entry = compile_query(parsed, pipeline=pipeline)
                # The registrant's text, not the AST's rendering.
                entry.source = entry.optimized.source = query
                with self._lock:
                    # Interns after all if an alias raced this compilation.
                    entry = self._insert_locked(key, entry, skey)
        except BaseException as exc:
            flight.error = exc
            raise
        else:
            flight.entry = entry
            return entry, False
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.done.set()

    def clear(self) -> None:
        """Drop all entries (stats are kept)."""
        with self._lock:
            self._entries.clear()
            self._structure_entries.clear()
            self._structure_refs.clear()
            self._entry_structures.clear()

    # ------------------------------------------------- warm-start snapshots

    #: Leading magic of a cache snapshot file (format versioning).
    SNAPSHOT_FORMAT = "repro-plan-cache"
    #: Version 2 adds ``entries`` alias records so a plan shared by several
    #: cache keys (structural interning) is written exactly once; version-1
    #: snapshots (artifacts only, one key each) are still readable.
    SNAPSHOT_VERSION = 2
    _READABLE_SNAPSHOT_VERSIONS = (1, 2)

    def artifacts(self) -> List[PlanArtifact]:
        """The cached plans as shippable artifacts, LRU-first.

        The entry list is snapshotted under the lock; the (possibly slow)
        per-plan pickling runs outside it, so a dump does not stall
        concurrent lookups.
        """
        with self._lock:
            entries = list(self._entries.values())
        return [PlanArtifact.from_plan(entry) for entry in entries]

    def dump(self, path: str) -> int:
        """Persist the cache to ``path``; returns the number of plans written.

        The snapshot is keyed by the same stable ``(query text, DTD
        fingerprint, pipeline config)`` keys the live cache uses —
        fingerprints are content hashes, so a snapshot taken by one process
        is valid in any other (or any later restart) seeing the same
        queries and schemas.  A plan object shared by several keys
        (structural interning) is serialized exactly once: the snapshot
        carries the unique artifacts plus ``entries`` alias records
        ``(key, artifact index)``, and :meth:`load` restores the sharing.
        The file is written atomically (temp file + rename): a reader
        never sees a torn snapshot, and a crash mid-dump leaves any
        previous snapshot intact.
        """
        with self._lock:
            items = list(self._entries.items())
        artifacts: List[PlanArtifact] = []
        indexes: Dict[int, int] = {}
        records: List[Tuple[Tuple[str, str, str], int]] = []
        for key, entry in items:
            index = indexes.get(id(entry))
            if index is None:
                index = len(artifacts)
                indexes[id(entry)] = index
                artifacts.append(PlanArtifact.from_plan(entry))
            records.append((key, index))
        payload = pickle.dumps(
            {
                "format": self.SNAPSHOT_FORMAT,
                "version": self.SNAPSHOT_VERSION,
                "artifacts": artifacts,
                "entries": records,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        tmp_path = f"{path}.tmp.{os.getpid()}"
        with open(tmp_path, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
        return len(artifacts)

    def load(self, path: str) -> int:
        """Insert the plans snapshotted at ``path``; returns how many.

        Entries are inserted in the snapshot's LRU order (oldest first), so
        when the snapshot exceeds :attr:`capacity` the *most recently used*
        plans of the dumping cache survive the eviction here, like they
        would have in the live cache.  Loaded entries count in
        ``stats.preloaded`` (not hits or misses — no lookup happened).  An
        unreadable, wrong-format or malformed file raises ``ValueError``
        naming ``path`` rather than silently serving an empty cache, and it
        inserts nothing: every record is checked first.
        """
        try:
            with open(path, "rb") as handle:
                snapshot = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError, AttributeError) as exc:
            raise ValueError(f"{path} is not a plan-cache snapshot: {exc}") from exc
        if (
            not isinstance(snapshot, dict)
            or snapshot.get("format") != self.SNAPSHOT_FORMAT
        ):
            raise ValueError(f"{path} is not a plan-cache snapshot")
        if snapshot.get("version") not in self._READABLE_SNAPSHOT_VERSIONS:
            raise ValueError(
                f"{path} is a version-{snapshot.get('version')} snapshot; "
                f"this build reads versions {self._READABLE_SNAPSHOT_VERSIONS}"
            )
        artifacts = snapshot.get("artifacts")
        if not isinstance(artifacts, (list, tuple)):
            raise ValueError(f"{path}: snapshot has no artifact list")
        plans: List[CompiledQueryPlan] = []
        for artifact in artifacts:
            try:
                entry = artifact.load_plan()
            except ValueError:
                raise
            except Exception as exc:
                # A torn payload, or a snapshot from a build whose plan
                # classes moved: still "not a (usable) snapshot", and the
                # caller's error contract is ValueError, not raw pickle
                # internals.
                raise ValueError(
                    f"{path}: snapshot plan failed to load: {exc}"
                ) from exc
            if cache_key(entry.source, entry.dtd, entry.pipeline_config) != artifact.key:
                raise ValueError(
                    f"{path}: artifact key {artifact.key[:2]} does not match "
                    "its plan (snapshot corrupted or fingerprinting changed)"
                )
            plans.append(entry)
        # Version-1 snapshots (and 2-without-records, defensively) carry no
        # alias records: every artifact fills exactly its own key.
        records = snapshot.get("entries")
        if records is None:
            records = [(artifact.key, i) for i, artifact in enumerate(artifacts)]
        if not isinstance(records, (list, tuple)):
            raise ValueError(f"{path}: snapshot entries are not a list of records")
        # Every record is checked before any is inserted: a rejected
        # snapshot leaves the cache exactly as it was.
        inserts: List[Tuple[Tuple[str, str, str], CompiledQueryPlan, str]] = []
        for number, record in enumerate(records):
            key, index = _snapshot_record(path, number, record, artifacts)
            inserts.append((key, plans[index], structure_key(plans[index])))
        with self._lock:
            for key, entry, skey in inserts:
                self._insert_locked(key, entry, skey)
            self.stats.preloaded += len(inserts)
        return len(inserts)


def _snapshot_record(
    path: str, number: int, record: object, artifacts: Sequence[PlanArtifact]
) -> Tuple[Tuple[str, str, str], int]:
    """Snapshot alias record ``number`` as ``(cache key, artifact index)``.

    Raises ``ValueError`` naming ``path`` for any record that is not a
    ``(key, index)`` pair with a string-triple key and an in-range integer
    index, or whose key leaves its artifact's ``(DTD fingerprint, config)``
    world: an alias may carry a different query text than the plan it
    shares, but sharing is only valid inside one schema and pipeline.
    """
    if not isinstance(record, (list, tuple)) or len(record) != 2:
        raise ValueError(f"{path}: entry record {number} is not a (key, index) pair")
    key, index = record
    if (
        not isinstance(key, (list, tuple))
        or len(key) != 3
        or not all(isinstance(part, str) for part in key)
    ):
        raise ValueError(
            f"{path}: entry record {number} key is not a "
            "(query, DTD fingerprint, config) triple"
        )
    if not isinstance(index, int) or not 0 <= index < len(artifacts):
        raise ValueError(
            f"{path}: entry record {number} points at artifact {index!r}, "
            f"but the snapshot has {len(artifacts)}"
        )
    if tuple(key[1:]) != artifacts[index].key[1:]:
        raise ValueError(
            f"{path}: entry record {number} does not match its "
            "artifact's fingerprints (snapshot corrupted)"
        )
    return (key[0], key[1], key[2]), index
