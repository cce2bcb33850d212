"""Content-model automata (Glushkov construction + determinization).

The paper's XSAX parser "builds a finite state automaton and lookup-tables for
validating the input and generating on-first events".  This module provides
exactly that substrate:

* :func:`build_automaton` turns an element declaration's content model into a
  deterministic :class:`ContentModelAutomaton` via the classic Glushkov
  (position) construction followed by subset construction;
* each automaton precomputes, per state, the set of child labels that may
  still occur on some path to acceptance (:meth:`reachable_labels`).  These
  tables drive both the derivation of order constraints
  (:mod:`repro.dtd.constraints`) and the firing of ``on-first past(X)``
  events in :mod:`repro.runtime.xsax`.

``ANY`` content models produce a one-state automaton that accepts every child
sequence; constraint extraction treats it as unconstrained.

The static query analyzer (:mod:`repro.analysis.query`) adds a second use:
*counting*.  :func:`axis_max_count` reads the per-level occurrence bound of
a child label (``?``/``1`` vs ``*``/``+`` fan-out) from the schema
constraints, and :func:`recursive_elements` / :func:`subtree_growth_degree`
lift those per-level bounds to the whole element graph — how many nested
unbounded axes a subtree of a given element type can contain.  Together they
bound how much a buffered region of a plan can grow with the document.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.dtd.model import (
    ANY,
    EMPTY,
    INFINITY,
    PCDATA,
    Choice,
    ContentParticle,
    ElementDecl,
    Name,
    OneOrMore,
    Optional_,
    Sequence,
    ZeroOrMore,
)


class _Glushkov:
    """Computes nullable / first / last / follow sets over positions."""

    def __init__(self, particle: ContentParticle):
        self.symbols: List[str] = []  # symbol of each position (index = position)
        self.nullable, self.first, self.last, self.follow = self._build(particle)

    def _new_position(self, symbol: str) -> int:
        self.symbols.append(symbol)
        return len(self.symbols) - 1

    def _build(
        self, particle: ContentParticle
    ) -> Tuple[bool, Set[int], Set[int], Dict[int, Set[int]]]:
        if isinstance(particle, Name):
            pos = self._new_position(particle.name)
            return False, {pos}, {pos}, {pos: set()}
        if isinstance(particle, Sequence):
            nullable = True
            first: Set[int] = set()
            last: Set[int] = set()
            follow: Dict[int, Set[int]] = {}
            for part in particle.parts:
                p_null, p_first, p_last, p_follow = self._build(part)
                for pos, targets in p_follow.items():
                    follow.setdefault(pos, set()).update(targets)
                # every "last" position of the prefix can be followed by the
                # "first" positions of this part
                for pos in last:
                    follow.setdefault(pos, set()).update(p_first)
                if nullable:
                    first |= p_first
                if p_null:
                    last |= p_last
                else:
                    last = set(p_last)
                nullable = nullable and p_null
            return nullable, first, last, follow
        if isinstance(particle, Choice):
            nullable = False
            first = set()
            last = set()
            follow = {}
            for part in particle.parts:
                p_null, p_first, p_last, p_follow = self._build(part)
                nullable = nullable or p_null
                first |= p_first
                last |= p_last
                for pos, targets in p_follow.items():
                    follow.setdefault(pos, set()).update(targets)
            return nullable, first, last, follow
        if isinstance(particle, (ZeroOrMore, OneOrMore)):
            p_null, p_first, p_last, p_follow = self._build(particle.part)
            for pos in p_last:
                p_follow.setdefault(pos, set()).update(p_first)
            nullable = True if isinstance(particle, ZeroOrMore) else p_null
            return nullable, p_first, p_last, p_follow
        if isinstance(particle, Optional_):
            p_null, p_first, p_last, p_follow = self._build(particle.part)
            return True, p_first, p_last, p_follow
        # EMPTY / PCDATA / ANY leaves: no child-element positions.
        return True, set(), set(), {}


class ContentModelAutomaton:
    """Deterministic automaton over an element's child-label sequences.

    States are small integers; state ``0`` is the start state.  The automaton
    exposes the lookup tables required by the runtime:

    * :meth:`step` — transition on a child label (``None`` = invalid child);
    * :meth:`is_accepting` — whether the children seen so far form a complete
      valid content sequence;
    * :meth:`reachable_labels` — which labels may still occur from a state on
      some path to acceptance (the basis of ``past(X)`` / on-first firing);
    * :meth:`can_still_occur` — convenience wrapper over the above.
    """

    def __init__(
        self,
        transitions: List[Dict[str, int]],
        accepting: Set[int],
        labels: FrozenSet[str],
        allows_any: bool = False,
    ):
        self._transitions = transitions
        self._accepting = accepting
        self.labels = labels
        self.allows_any = allows_any
        self._reachable: List[FrozenSet[str]] = self._compute_reachable_labels()

    # ------------------------------------------------------------ protocol

    @property
    def start_state(self) -> int:
        return 0

    @property
    def state_count(self) -> int:
        return len(self._transitions)

    def step(self, state: int, label: str) -> Optional[int]:
        """Successor of ``state`` on child ``label`` (``None`` if invalid)."""
        if self.allows_any:
            return state
        return self._transitions[state].get(label)

    def is_accepting(self, state: int) -> bool:
        """Whether ``state`` is a valid end-of-children state."""
        if self.allows_any:
            return True
        return state in self._accepting

    def transitions_from(self, state: int) -> Dict[str, int]:
        """Outgoing transitions of ``state`` as ``{label: successor}``."""
        if self.allows_any:
            return {}
        return dict(self._transitions[state])

    def reachable_labels(self, state: int) -> FrozenSet[str]:
        """Labels that may still occur, starting at ``state``, on some path
        that eventually reaches an accepting state."""
        if self.allows_any:
            return self.labels
        return self._reachable[state]

    def can_still_occur(self, state: int, labels: FrozenSet[str]) -> bool:
        """Whether any label of ``labels`` may still occur from ``state``."""
        if self.allows_any:
            return True
        return bool(self._reachable[state] & labels)

    # --------------------------------------------------------------- tables

    def _compute_reachable_labels(self) -> List[FrozenSet[str]]:
        if self.allows_any:
            return []
        n = len(self._transitions)
        # A state is co-accessible if an accepting state is reachable from it.
        co_accessible = set(self._accepting)
        changed = True
        while changed:
            changed = False
            for state in range(n):
                if state in co_accessible:
                    continue
                for successor in self._transitions[state].values():
                    if successor in co_accessible:
                        co_accessible.add(state)
                        changed = True
                        break
        # reachable_labels(q) = labels on edges of paths from q that stay
        # within the co-accessible sub-automaton.  Computed by a backwards
        # fixpoint: R(q) = union over useful edges (q, l, q') of {l} ∪ R(q').
        reachable: List[Set[str]] = [set() for _ in range(n)]
        changed = True
        while changed:
            changed = False
            for state in range(n):
                if state not in co_accessible:
                    continue
                current = reachable[state]
                before = len(current)
                for label, successor in self._transitions[state].items():
                    if successor in co_accessible:
                        current.add(label)
                        current |= reachable[successor]
                if len(current) != before:
                    changed = True
        return [frozenset(s) for s in reachable]

    def accepts(self, word: List[str]) -> bool:
        """Whether the child-label sequence ``word`` is valid."""
        state: Optional[int] = self.start_state
        for label in word:
            state = self.step(state, label)
            if state is None:
                return False
        return self.is_accepting(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContentModelAutomaton(states={self.state_count}, "
            f"labels={sorted(self.labels)}, any={self.allows_any})"
        )


def build_automaton(decl: ElementDecl) -> ContentModelAutomaton:
    """Build the deterministic content-model automaton for ``decl``."""
    content = decl.content
    labels = frozenset(content.labels())
    if content is ANY:
        return ContentModelAutomaton([{}], {0}, labels, allows_any=True)
    if content is EMPTY or content is PCDATA or not labels:
        # Only the empty child sequence is valid (text is handled separately).
        return ContentModelAutomaton([{}], {0}, labels)

    glushkov = _Glushkov(content)
    symbols = glushkov.symbols

    # Standard subset construction over the Glushkov NFA.  An NFA state is
    # either the initial state (represented by position -1) or a position of
    # the content model; a DFA state is a frozenset of occupied NFA states.
    # DTD content models are required to be deterministic, so each subset is
    # usually a singleton, but the construction is correct for ambiguous
    # models as well.
    initial = -1
    start_key: FrozenSet[int] = frozenset({initial})
    states: Dict[FrozenSet[int], int] = {start_key: 0}
    transitions: List[Dict[str, int]] = [{}]
    accepting: Set[int] = set()
    if glushkov.nullable:
        accepting.add(0)

    def successors(position: int) -> Set[int]:
        if position == initial:
            return glushkov.first
        return glushkov.follow.get(position, set())

    worklist: List[FrozenSet[int]] = [start_key]
    while worklist:
        occupied = worklist.pop()
        index = states[occupied]
        by_label: Dict[str, Set[int]] = {}
        for position in occupied:
            for candidate in successors(position):
                by_label.setdefault(symbols[candidate], set()).add(candidate)
        for label, entered in by_label.items():
            target_key = frozenset(entered)
            if target_key not in states:
                states[target_key] = len(transitions)
                transitions.append({})
                if target_key & glushkov.last:
                    accepting.add(states[target_key])
                worklist.append(target_key)
            transitions[index][label] = states[target_key]

    return ContentModelAutomaton(transitions, accepting, labels)


# --------------------------------------------------------- element graph
#
# The per-element automata bound one *level* of the tree; the functions
# below lift those bounds to whole subtrees by walking the element graph
# (element name → child labels of its content model).  They are the schema
# side of the static query analyzer's buffer-bound classification.


def recursive_elements(dtd) -> FrozenSet[str]:
    """Declared elements whose subtrees can contain themselves.

    An element is recursive when the element graph has a path from it back
    to itself — its subtree depth (and so any buffered copy of it) has no
    static bound.  Elements with ``ANY`` content are conservatively
    recursive: they may contain any declared element, the root included.
    ``dtd`` is duck-typed (``element_names`` / ``element`` /
    ``child_labels``) to keep this module import-light, like
    :meth:`repro.dtd.schema.DTD.automaton` already does in reverse.
    """
    names = list(dtd.element_names)
    declared = set(names)
    successors: Dict[str, Set[str]] = {}
    for name in names:
        if dtd.element(name).content is ANY:
            successors[name] = declared
        else:
            successors[name] = set(dtd.child_labels(name)) & declared
    # An element is recursive iff it reaches an element-graph cycle that
    # reaches back to it; equivalently, iff it can reach itself.  With the
    # small element counts of real DTDs a per-element reachability probe
    # is plenty.
    recursive: Set[str] = set()
    for name in names:
        seen: Set[str] = set()
        frontier = list(successors[name])
        while frontier:
            current = frontier.pop()
            if current == name:
                recursive.add(name)
                break
            if current in seen or current not in declared:
                continue
            seen.add(current)
            frontier.extend(successors[current])
    return frozenset(recursive)


def axis_max_count(dtd, element_type: str, label: str) -> float:
    """Maximum occurrences of child ``label`` under one ``element_type``.

    :data:`~repro.dtd.model.INFINITY` for repeating axes (``*``/``+``,
    mixed content, ``ANY``, undeclared parents); the exact content-model
    bound (:meth:`~repro.dtd.constraints.SchemaConstraints.max_occurrences`)
    otherwise.  ``element_type`` may be the synthetic document type — the
    document node has exactly one child, the root element.
    """
    if element_type == "#document":
        return 1.0
    return float(dtd.constraints().max_occurrences(element_type, label))


def subtree_growth_degree(dtd, name: str) -> float:
    """How many nested unbounded axes a subtree of element ``name`` spans.

    The "degree of unboundedness" of the subtree's node count as the
    document grows:

    * ``0`` — statically bounded: every axis below ``name`` is ``?``/``1``;
    * ``k`` — ``k`` nested repeating axes (one ``*`` level grows linearly
      with the data under it, a ``*`` inside a ``*`` quadratically, ...);
    * :data:`~repro.dtd.model.INFINITY` — no static structure bound at
      all: ``name`` is recursive, has ``ANY`` content, or is undeclared
      (the validator treats undeclared elements as ``ANY``).

    ``#document`` is accepted and delegates to the root element.
    """
    recursive = recursive_elements(dtd)
    memo: Dict[str, float] = {}

    def degree(element: str) -> float:
        if element == "#document":
            return degree(dtd.root)
        if not dtd.has_element(element) or element in recursive:
            return INFINITY
        if dtd.element(element).content is ANY:
            return INFINITY
        cached = memo.get(element)
        if cached is not None:
            return cached
        memo[element] = 0.0  # cycle guard; real cycles were caught above
        best = 0.0
        for label in dtd.child_labels(element):
            axis = 0.0 if axis_max_count(dtd, element, label) < INFINITY else 1.0
            best = max(best, axis + degree(label))
        memo[element] = best
        return best

    return degree(name)
