"""Shared single-pass event dispatch with per-query routing.

One :class:`~repro.xmlstream.parser.StreamingXMLParser` feed is fanned out
to N per-query FluX runtimes.  The dispatcher's job is to make the shared
scan cheaper than N independent scans *without changing any query's output
by a single byte*.  Each registered plan contributes a
:class:`PlanProfile` of static interest:

* the projection tree of the query (as in the projection baseline engine:
  every document-rooted path the query's paths can touch, with
  ``keep_subtree`` marking value uses), and
* plan-level interest extracted from the physical plan — handler dispatch
  labels, BDF buffer labels, whole-element buffering, stream-copied
  variables — and the element types carrying registered XSAX ``on-first``
  conditions.

Profiles are grouped by *plan structure* before they reach the index:
registrations whose plans are structurally identical (same
:func:`~repro.runtime.plan_cache.structure_key`) share one profile, one
routing bit, and one evaluation session, however many subscribers ride on
them.  The profiles of all groups are then merged into a single **path
trie** (:class:`_TrieNode`) plus per-name mask tables, so a single
stack-machine pass (:meth:`SharedProjectionIndex.route`) computes, **per
admitted event, a bitmask of exactly which groups need it** (bit *i* set
means group *i*'s session receives the event) with per-event cost bounded
by the number of *distinct* structures, not the registrant count.  Per
group:

* character data in regions that plan's buffers or copies cannot observe
  is not routed to it;
* a whole element subtree is not routed to a plan when (a) it matches no
  node of *that plan's* projection tree, (b) its name is not interesting
  to that plan, and (c) its **parent's element type has no on-first
  condition registered in that plan**;
* an event needed by *no* plan is pruned once, for all of them (the union
  fast path of PR 1), without even being buffered.

Rule (c) is what keeps pruning semantics-preserving — now *per plan*, not
just for the union: XSAX decides when an ``on-first past(...)`` event fires
by stepping the parent's content-model automaton on every child start tag,
and the evaluator's output order depends on exactly where those events
appear in the stream.  Children of an element carrying a condition in plan
*i* are therefore always routed to plan *i*, even when irrelevant to its
data needs (and independently *not* routed to a plan without such a
condition).  For elements without conditions, delaying an always-satisfied
handler from the arrival of a pruned child to the next forwarded event
cannot reorder output of *safe* FluX queries (the safety check guarantees
an on-first handler cannot fire while an earlier-indexed handler still
expects children), so routing is invisible: each plan sees exactly the
stream its own solo filter would have admitted.

Per-query validation is disabled inside a shared pass; the dispatcher
validates the *unfiltered* stream once (``validate=True`` on the service),
which preserves the error behaviour of solo runs at a fifth of the cost.

Thread-safety: everything in this module is per-pass state owned by the
single thread (or coroutine) feeding the pass.  :class:`PlanProfile` is the
exception — it is immutable after construction and hangs off a long-lived
registration, so it may be read by any number of later passes.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dtd.validator import StreamingValidator
from repro.engines.projection_engine import ProjectionNode, projection_paths
from repro.runtime.compiler import CompiledQueryPlan
from repro.runtime.plan import (
    CopyVarOp,
    OnHandlerOp,
    PlanOp,
    ProcessStreamOp,
)
from repro.service.metrics import PassMetrics
from repro.xmlstream.events import EndElement, Event, SkippedSubtree, StartElement, Text
from repro.xmlstream.parser import SKIP, SkipTrie
from repro.xquery.analysis import WHOLE_SUBTREE


def _walk(op: PlanOp) -> Iterable[PlanOp]:
    yield op
    for child in op.children():
        for descendant in _walk(child):
            yield descendant


class PlanProfile:
    """Event interest of one compiled plan, derived statically.

    ``keep_names``: element names whose whole subtree (children *and* text)
    the runtime may materialize or copy — buffered labels, whole-buffered
    scope types, and stream-copied handler labels.
    ``interesting_names``: names that must reach the runtime (handler
    dispatch labels, scope element types, all of ``keep_names``).
    ``condition_types``: element types with registered on-first conditions.
    ``keep_everything``: conservative escape hatch — the plan copies a
    binding the walk cannot attribute to a label (e.g. ``$ROOT`` itself),
    so nothing may be filtered for it.
    """

    def __init__(self, entry: CompiledQueryPlan):
        self.entry = entry
        self.keep_names: Set[str] = set()
        self.interesting_names: Set[str] = set()
        self.condition_types: Set[str] = set(entry.plan.conditions.element_types())
        self.keep_everything = False
        self.projection: ProjectionNode = projection_paths(entry.optimized.parsed)

        bindings: Dict[str, Set[str]] = {}
        ops = list(_walk(entry.plan.root))
        for op in ops:
            if isinstance(op, OnHandlerOp):
                bindings.setdefault(op.var, set()).add(op.label)
        for op in ops:
            if isinstance(op, ProcessStreamOp):
                self.interesting_names.add(op.element_type)
                self.interesting_names.update(op.on_index)
                for label in op.buffer_labels:
                    if label == WHOLE_SUBTREE:
                        self.keep_everything = True
                    else:
                        self.keep_names.add(label)
                if op.buffer_whole:
                    self.keep_names.add(op.element_type)
            elif isinstance(op, CopyVarOp):
                labels = bindings.get(op.var)
                if labels:
                    self.keep_names.update(labels)
                else:
                    # Copy of the document ($ROOT) or of a binding outside
                    # this walk's label attribution: keep the entire stream.
                    self.keep_everything = True
        self.interesting_names.update(self.keep_names)


class _TrieNode:
    """One document-rooted path of the merged projection trie.

    The per-group projection trees are folded into one trie at index
    construction: ``mask`` is the bitmask of groups whose projection tree
    has a node at exactly this path, ``keep_mask`` the subset whose node
    keeps the whole subtree.  Projection trees are document-rooted, so a
    path determines its matches for every group at once — the hot loop
    replaces the old per-plan matched-node lists with a single child
    lookup here, making the per-event cost independent of fleet size.
    Immutable after construction; shared freely by the pass's frames.
    """

    __slots__ = ("children", "mask", "keep_mask")

    def __init__(self) -> None:
        self.children: Dict[str, "_TrieNode"] = {}
        self.mask = 0
        self.keep_mask = 0


def _merge_projection(trie: _TrieNode, node: ProjectionNode, bit: int) -> None:
    """Fold one group's projection tree into the merged trie."""
    for name, child in node.children.items():
        sub = trie.children.get(name)
        if sub is None:
            sub = trie.children[name] = _TrieNode()
        sub.mask |= bit
        if child.keep_subtree:
            sub.keep_mask |= bit
        _merge_projection(sub, child, bit)


class _Frame:
    """Per-open-element state of the shared routing machine.

    ``active`` is the bitmask of groups this element was routed to (a
    group that pruned an ancestor can never reappear below it); ``kept``
    marks the groups whose buffers/copies can observe this region's
    character data (keep-everything groups are folded in at the root and
    inherited); ``node`` is the merged-trie node this element's
    document-rooted path reached, or ``None`` once the path left every
    group's projection tree.
    """

    __slots__ = ("name", "node", "kept", "active")

    def __init__(self, name: str, node: Optional[_TrieNode], kept: int, active: int):
        self.name = name
        self.node = node
        self.kept = kept
        self.active = active


class SharedProjectionIndex:
    """Merged interest of all structure groups, applied as an event router.

    :meth:`route` is a push-based stack machine over the single parsed
    stream: it returns the bitmask of groups (in registration order) that
    need the event.  A zero mask means the event is skipped *once* for all
    of them; the savings — global and per subscriber — are recorded in the
    pass metrics (per-query counters are written by
    :meth:`finalize_metrics`, which expands each group's tally to all its
    subscriber keys).

    Construction merges every group's static interest into shared tables
    so the hot loop never iterates the groups: a path trie over the
    projection trees (:class:`_TrieNode`) and per-name group masks for
    keep/interesting/condition names.  All per-event work is a handful of
    dict lookups and mask operations whose width is the number of
    *distinct plan structures* — registering ten thousand aliases of one
    hundred structures routes on one-hundred-bit masks.

    ``keys`` names the subscribers: one entry per profile, each either a
    single key or a sequence of keys (the group's subscribers, fan-out
    handled downstream by the pass).

    Lifecycle: one index per pass, fed exactly one document's events in
    order by one driver; it is not reusable across documents (the element
    stack would be stale).  Not thread-safe — the owning pass serializes
    all calls.
    """

    def __init__(
        self,
        profiles: Iterable[PlanProfile],
        metrics: Optional[PassMetrics] = None,
        keys: Optional[List[object]] = None,
    ):
        profiles = list(profiles)
        self._profiles = tuple(profiles)
        self.metrics = metrics if metrics is not None else PassMetrics()
        if keys is None:
            key_groups: List[List[str]] = [[f"q{i}"] for i in range(len(profiles))]
        else:
            key_groups = [
                [group] if isinstance(group, str) else list(group) for group in keys
            ]
        if len(key_groups) != len(profiles):
            raise ValueError("one key (or key group) per profile required")
        #: Subscriber keys per group, in registration order.
        self.keys: List[List[str]] = key_groups
        self._count = len(profiles)
        self.full_mask = (1 << self._count) - 1
        self._keep_everything_mask = 0
        self._root_keep_mask = 0
        root = _TrieNode()
        keep_name_masks: Dict[str, int] = {}
        interesting_masks: Dict[str, int] = {}
        condition_masks: Dict[str, int] = {}
        for i, profile in enumerate(profiles):
            bit = 1 << i
            if profile.keep_everything:
                self._keep_everything_mask |= bit
            if profile.projection.keep_subtree:
                self._root_keep_mask |= bit
            _merge_projection(root, profile.projection, bit)
            for name in profile.keep_names:
                keep_name_masks[name] = keep_name_masks.get(name, 0) | bit
            interesting = set(profile.interesting_names)
            _projection_names(profile.projection, interesting)
            for name in interesting:
                interesting_masks[name] = interesting_masks.get(name, 0) | bit
            for name in profile.condition_types:
                condition_masks[name] = condition_masks.get(name, 0) | bit
        self._root = root
        # Per-name group masks, built once here so the event loop never
        # reconstructs a mask: route() only reads them with .get(name, 0).
        self._keep_name_masks = keep_name_masks
        self._interesting_masks = interesting_masks
        self._condition_masks = condition_masks
        self._stack: List[_Frame] = []
        self._skip_depth = 0
        self._skipped_mask = 0
        # Tallied per distinct mask, expanded per group (then per
        # subscriber) by finalize_metrics() — cheaper than touching N
        # counters on every event.
        self._mask_counts: Dict[int, int] = {}

    @property
    def group_count(self) -> int:
        """Distinct structure groups (the routing-mask bit width)."""
        return self._count

    # ------------------------------------------------------------- router

    def route(self, event: Event) -> int:  # hot-loop
        """The bitmask of structure groups ``event`` must be forwarded to.

        The per-event function of the whole service — every lookup it
        repeats is paid once per parser event, so shared state is hoisted
        into locals and events are dispatched on exact class identity
        (the event vocabulary is closed: nothing subclasses
        :class:`StartElement`/:class:`EndElement`/:class:`Text`), which
        is cheaper than ``isinstance`` and keeps ROADMAP item 2's
        no-``isinstance`` rule.
        """
        metrics = self.metrics
        metrics.parser_events += 1
        cls = event.__class__
        if self._skip_depth:
            metrics.events_pruned += 1
            if cls is StartElement:
                self._skip_depth += 1
            elif cls is EndElement:
                self._skip_depth -= 1
            return 0
        stack = self._stack
        # hot-loop-ok: second loads sit on the mutually exclusive skip path
        if cls is StartElement:
            mask = self._route_start(event)
            if not mask:
                return 0
        elif cls is EndElement:  # hot-loop-ok: exclusive with the skip path
            # Exactly the plans that saw the start tag see the end tag, so
            # every per-plan stream stays well formed.
            mask = stack.pop().active if stack else self.full_mask
            metrics.events_forwarded += 1
        elif cls is Text:
            keep_everything = self._keep_everything_mask
            if stack:
                frame = stack[-1]
                mask = frame.active & (frame.kept | keep_everything)
            else:
                mask = keep_everything
            if not mask:
                metrics.text_events_dropped += 1
                return 0
            metrics.events_forwarded += 1
        elif cls is SkippedSubtree:
            return self._route_skipped(event)
        else:
            # StartDocument / EndDocument always reach every runtime.
            mask = self.full_mask  # hot-loop-ok: twice per document only
            metrics.events_forwarded += 1
        counts = self._mask_counts
        counts[mask] = counts.get(mask, 0) + 1
        return mask

    def _route_skipped(self, event: SkippedSubtree) -> int:
        """A subtree the parser skipped (see :meth:`skip_trie`): no group
        reads it, so it goes only where the parent's on-first conditions
        must see the child arrive, as one event; otherwise it is pruned."""
        metrics = self.metrics
        metrics.skipped_bytes += event.size
        if event.name:
            metrics.skipped_subtrees += 1
            stack = self._stack
            if stack:
                parent = stack[-1]
                self._skipped_mask = parent.active & self._condition_masks.get(parent.name, 0)
            else:  # a root element no group reads still reaches every group
                self._skipped_mask = self.full_mask
            if not self._skipped_mask:
                metrics.subtrees_pruned += 1
        mask = self._skipped_mask  # the later pieces follow the first
        if not mask:
            metrics.events_pruned += 1
            return 0
        metrics.events_forwarded += 1
        counts = self._mask_counts
        counts[mask] = counts.get(mask, 0) + 1
        return mask

    def _route_start(self, event: StartElement) -> int:  # hot-loop
        name = event.name
        metrics = self.metrics
        stack = self._stack
        keep_mask_for = self._keep_name_masks.get
        if not stack:
            # The document root: the spine of every document-rooted path —
            # every group receives it.  One visit per pass.
            root_child = self._root.children.get(name)
            kept = (
                self._keep_everything_mask
                | self._root_keep_mask
                | keep_mask_for(name, 0)
            )
            if root_child is not None:
                kept |= root_child.keep_mask
            active = self.full_mask
            stack.append(_Frame(name, root_child, kept, active))  # hot-loop-ok: root only
            metrics.events_forwarded += 1
            return active
        parent = stack[-1]
        parent_node = parent.node
        kept = parent.kept | keep_mask_for(name, 0)
        match = 0
        node = None
        if parent_node is not None:
            node = parent_node.children.get(name)
            if node is not None:
                kept |= node.keep_mask
                match = node.mask
        active = parent.active & (
            kept
            | match
            | self._interesting_masks.get(name, 0)
            | self._condition_masks.get(parent.name, 0)
        )
        if active:
            # hot-loop-ok: one frame per retained open element (depth-bounded)
            stack.append(_Frame(name, node, kept, active))
            metrics.events_forwarded += 1
            return active
        # Irrelevant to every group and invisible to every condition:
        # prune the whole subtree once, for all runtimes.
        self._skip_depth = 1
        metrics.subtrees_pruned += 1
        metrics.events_pruned += 1
        return 0

    # ---------------------------------------------------------- skip trie

    def skip_trie(self) -> Optional[SkipTrie]:
        """The parser's skip trie: the subtrees whose content :meth:`route`
        would prune for every group, so the parser need not build their
        events.  Derived once per tuple of profiles (a service's passes
        share it until its registrations change).

        That is every subtree :meth:`_route_start` prunes, and also a child
        forwarded only because of rule (c): the groups whose parent carries
        a condition then receive the skipped subtree as one event, which
        steps the parent's automaton as the start tag would
        (:meth:`_route_skipped`).  A routing frame is determined by its
        document-rooted path, and what
        :meth:`_route_start` computes for a child depends only on the
        parent's ``(trie node, kept, active)`` masks, the condition mask of
        the parent's name and the child's name.  So one trie node stands
        for each such state (memoized, so recursive paths make a cyclic
        trie); names no mask table mentions share the node's default.
        """
        return _skip_trie(self._profiles)

    def _derive_skip_trie(self) -> Optional[SkipTrie]:
        names = set(self._keep_name_masks) | set(self._interesting_masks)
        names |= set(self._condition_masks)
        # The document is a frame whose one child every group sees arrive.
        kept = self._keep_everything_mask | self._root_keep_mask
        full = self.full_mask
        return self._frame_trie(self._root, kept, full, full, names, {})

    def _frame_trie(
        self,
        node: Optional[_TrieNode],
        kept: int,
        active: int,
        condition: int,
        names: Set[str],
        memo: Dict[tuple, Optional[SkipTrie]],
    ) -> Optional[SkipTrie]:
        """The skip trie below an element whose routing frame is
        ``(node, kept, active)`` and whose name has condition mask
        ``condition``."""
        if active & kept:
            return None  # some group keeps everything below: nothing prunes
        key = (id(node), kept, active, condition)
        if key in memo:
            return memo[key]
        trie = memo[key] = SkipTrie()
        children = node.children if node is not None else {}
        for name in names | set(children):
            trie[name] = self._child_trie(node, kept, active, condition, name, names, memo)
        trie.default = self._child_trie(node, kept, active, condition, None, names, memo)
        return trie

    def _child_trie(self, node, kept, active, condition, name, names, memo):
        """What :meth:`_route_start` does with child ``name`` (``None``: a
        name no table mentions) of the frame: :data:`SKIP` where no group
        reads it, rule (c) aside."""
        child_kept = kept | self._keep_name_masks.get(name, 0)
        match = 0
        child = None
        if node is not None and name is not None:
            child = node.children.get(name)
            if child is not None:
                child_kept |= child.keep_mask
                match = child.mask
        reads = active & (child_kept | match | self._interesting_masks.get(name, 0))
        if not reads:
            return SKIP
        return self._frame_trie(
            child,
            child_kept,
            reads | active & condition,
            self._condition_masks.get(name, 0),
            names,
            memo,
        )

    # ------------------------------------------------------------ metrics

    def per_group_forwarded(self) -> List[int]:
        """Events routed to each structure group so far, in order."""
        counts = [0] * self._count
        for mask, count in self._mask_counts.items():
            i = 0
            while mask:
                if mask & 1:
                    counts[i] += count
                mask >>= 1
                i += 1
        return counts

    def finalize_metrics(self) -> None:
        """Write the per-query routed/suppressed counters into the metrics.

        ``per_query_forwarded[key]`` counts the events routed to that
        query; ``per_query_pruned[key]`` counts the events some *other*
        query needed but this one did not — the routing win over PR 1's
        union filter, which would have delivered all
        ``events_forwarded`` events to every session.  Every subscriber of
        a structure group gets the group's tally: aliases ride the shared
        session, so they were routed exactly its events.
        """
        forwarded = self.metrics.events_forwarded
        per_forwarded = self.metrics.per_query_forwarded
        per_pruned = self.metrics.per_query_pruned
        for group_keys, routed in zip(self.keys, self.per_group_forwarded()):
            for key in group_keys:
                per_forwarded[key] = routed
                per_pruned[key] = forwarded - routed


@functools.lru_cache(maxsize=8)
def _skip_trie(profiles: Tuple[PlanProfile, ...]) -> Optional[SkipTrie]:
    return SharedProjectionIndex(profiles)._derive_skip_trie()


def _projection_names(node: ProjectionNode, into: Set[str]) -> None:
    for label, child in node.children.items():
        into.add(label)
        _projection_names(child, into)


class SharedDispatcher:
    """Routes one parsed event stream to the sessions that need each event.

    The dispatcher owns the shared validation pass (one
    :class:`~repro.dtd.validator.StreamingValidator` over the *unfiltered*
    stream) and batches routed events into per-session chunks so the
    per-session hand-off cost is amortized.  Draining is round-robin in
    registration order, and this *is* the scheduler: each ``feed``
    re-enters that session's evaluation generator on this thread until it
    has consumed its chunk.

    Lifecycle: one dispatcher per pass; ``dispatch`` any number of times,
    then ``flush`` exactly once (the pass's ``finish`` does).  Not
    thread-safe — driven by the pass's single feeding thread.
    """

    def __init__(
        self,
        index: SharedProjectionIndex,
        sessions: List[object],
        validator: Optional[StreamingValidator] = None,
        chunk_size: int = 256,
    ):
        self.index = index
        self.sessions = sessions
        self.validator = validator
        self.chunk_size = chunk_size
        self._pending: List[List[Event]] = [[] for _ in sessions]

    def dispatch(self, events: Iterable[Event]) -> None:  # hot-loop
        """Route ``events``, forwarding each survivor to the sessions whose
        routing bit is set.

        Routed events are buffered per session up to ``chunk_size`` across
        calls; :meth:`flush` hands the tails over (the pass calls it on
        finish).  Stage time is taken here, structurally: one clock pair
        around each session hand-off (``evaluate`` — the fed session
        re-enters its evaluation generator right there) and one around the
        whole call, whose remainder is ``route`` (validation, routing and
        bucketing).  A hand-off that raises aborts the pass, so its partial
        timings are deliberately dropped.
        """
        route = self.index.route
        validator = self.validator
        pending = self._pending
        chunk_size = self.chunk_size
        sessions = self.sessions
        perf = time.perf_counter
        evaluate_s = 0.0
        started = perf()
        for event in events:
            if validator is not None:
                validator.feed(event)
            mask = route(event)
            while mask:
                bit = mask & -mask
                mask ^= bit
                i = bit.bit_length() - 1
                bucket = pending[i]
                bucket.append(event)
                if len(bucket) >= chunk_size:
                    # hot-loop-ok: one fresh bucket and one clock pair per chunk_size events
                    pending[i] = []
                    handed = perf()
                    sessions[i].feed(bucket)
                    evaluate_s += perf() - handed
        stage_seconds = self.index.metrics.stage_seconds
        stage_seconds["evaluate"] += evaluate_s
        stage_seconds["route"] += perf() - started - evaluate_s

    def flush(self) -> None:
        """Forward any buffered events to their sessions now (round-robin),
        charging the hand-offs to the ``evaluate`` stage."""
        pending = self._pending
        perf = time.perf_counter
        started = perf()
        for i, bucket in enumerate(pending):
            if bucket:
                pending[i] = []
                self.sessions[i].feed(bucket)
        self.index.metrics.stage_seconds["evaluate"] += perf() - started
