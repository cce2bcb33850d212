"""Schema constraints derived from a DTD.

Section 3.1 of the paper describes three families of DTD-derived constraints
that drive the algebraic optimizer and the XQuery→FluX scheduler:

* **cardinality constraints** ``a ∈ ||≤k r`` — among the children of an ``r``
  element, label ``a`` occurs at most ``k`` times (the paper uses ``k = 1`` to
  merge consecutive for-loops over the same path);
* **order constraints** — all ``a`` children of an ``r`` element occur before
  all ``b`` children in every document valid w.r.t. the DTD (the paper's
  example: ``title`` before ``author`` in the DTD of Figure 1), which lets the
  scheduler emit streaming ``on`` handlers instead of buffering;
* **co-occurrence (language) constraints** — no ``r`` element can have both an
  ``a`` child and a ``b`` child (the paper's example: ``author`` and
  ``editor`` under the DTD of Figure 1), which lets the optimizer delete
  unsatisfiable conditionals.

Cardinalities are read off the content particle; order and co-occurrence
are decided on the deterministic content-model automaton of the parent
element.  All three are exact for the supported DTD fragment.  Elements
with ``ANY`` content yield no constraints.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.dtd.model import INFINITY
from repro.dtd.schema import DTD


class SchemaConstraints:
    """Constraint oracle over a :class:`~repro.dtd.schema.DTD`.

    All queries are memoized; a single instance is shared through
    :meth:`DTD.constraints`.
    """

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self._order_cache: Dict[Tuple[str, str, str], bool] = {}
        self._cooccur_cache: Dict[Tuple[str, FrozenSet[str]], bool] = {}

    # ------------------------------------------------------- cardinality

    def max_occurrences(self, parent: str, label: str) -> float:
        """Maximum number of ``label`` children of a ``parent`` element.

        Returns :data:`~repro.dtd.model.INFINITY` when unbounded (``*``/``+``
        axes, ``ANY`` content, undeclared parents), ``0`` when the DTD
        forbids such children entirely.
        """
        if not self.dtd.has_element(parent):
            return INFINITY
        return self.dtd.element(parent).content.max_count(label)

    def min_occurrences(self, parent: str, label: str) -> float:
        """Minimum number of ``label`` children of a ``parent`` element."""
        if not self.dtd.has_element(parent):
            return 0
        return self.dtd.element(parent).content.min_count(label)

    def at_most_once(self, parent: str, label: str) -> bool:
        """Cardinality constraint ``label ∈ ||≤1 parent``."""
        return self.max_occurrences(parent, label) <= 1

    def exactly_once(self, parent: str, label: str) -> bool:
        """Whether every ``parent`` has exactly one ``label`` child."""
        return (
            self.max_occurrences(parent, label) == 1
            and self.min_occurrences(parent, label) == 1
        )

    def never_occurs(self, parent: str, label: str) -> bool:
        """Whether the DTD forbids ``label`` children of ``parent`` entirely."""
        if not self.dtd.has_element(parent):
            return False
        decl = self.dtd.element(parent)
        if decl.content.labels() or decl.content.max_count(label) > 0:
            return self.max_occurrences(parent, label) == 0
        # EMPTY / PCDATA content: no element children at all.
        return True

    # ------------------------------------------------------------- order

    def order_holds(self, parent: str, before: str, after: str) -> bool:
        """Order constraint: all ``before`` children precede all ``after``
        children in every valid ``parent`` element.

        Equivalently: no accepted child sequence contains an occurrence of
        ``before`` *after* an occurrence of ``after``.  Decided on the
        content-model automaton: the constraint fails iff some useful
        (co-accessible) path takes an ``after`` edge and later a ``before``
        edge.

        Labels that cannot occur at all trivially satisfy every order
        constraint involving them.  ``before == after`` holds iff the label
        occurs at most once (two occurrences of the same label violate
        "every before-occurrence precedes every after-occurrence" only when
        they are distinct occurrences interleaving — with a single label the
        condition degenerates to at-most-once).
        """
        key = (parent, before, after)
        if key in self._order_cache:
            return self._order_cache[key]
        result = self._compute_order(parent, before, after)
        self._order_cache[key] = result
        return result

    def _compute_order(self, parent: str, before: str, after: str) -> bool:
        if not self.dtd.has_element(parent):
            return False
        automaton = self.dtd.automaton(parent)
        if automaton.allows_any:
            return False
        if before == after:
            return self.at_most_once(parent, before)
        # Breadth-first over states reachable *after* having read an `after`
        # edge on a useful path; the constraint fails if a `before` edge is
        # then still reachable.
        co_reachable_states = self._useful_states(automaton)
        frontier: List[int] = []
        seen: Set[int] = set()
        for state in co_reachable_states:
            target = automaton.transitions_from(state).get(after)
            if target is not None and target in co_reachable_states:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        while frontier:
            state = frontier.pop()
            if before in automaton.reachable_labels(state):
                return False
            for target in automaton.transitions_from(state).values():
                if target in co_reachable_states and target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return True

    def all_before(self, parent: str, befores: Iterable[str], after: str) -> bool:
        """Whether every label in ``befores`` satisfies ``order_holds(..., after)``."""
        return all(self.order_holds(parent, before, after) for before in befores)

    # ------------------------------------------------------ co-occurrence

    def can_cooccur(self, parent: str, labels: Iterable[str]) -> bool:
        """Whether some valid ``parent`` element has at least one child of
        *each* label in ``labels`` (the language constraint of the paper is
        the negation of this for a pair of labels)."""
        label_set = frozenset(labels)
        key = (parent, label_set)
        if key in self._cooccur_cache:
            return self._cooccur_cache[key]
        result = self._compute_cooccur(parent, label_set)
        self._cooccur_cache[key] = result
        return result

    def mutually_exclusive(self, parent: str, first: str, second: str) -> bool:
        """Language constraint: no ``parent`` element has both a ``first``
        child and a ``second`` child."""
        if first == second:
            return self.never_occurs(parent, first)
        return not self.can_cooccur(parent, [first, second])

    def _compute_cooccur(self, parent: str, labels: FrozenSet[str]) -> bool:
        if not labels:
            return True
        if not self.dtd.has_element(parent):
            return True
        automaton = self.dtd.automaton(parent)
        if automaton.allows_any:
            return True
        if any(label not in automaton.labels for label in labels):
            return False
        # Search the product of the automaton with a "which labels have been
        # seen" tracker for an accepting configuration covering all labels.
        start = (automaton.start_state, frozenset())
        frontier = [start]
        seen = {start}
        while frontier:
            state, have = frontier.pop()
            if automaton.is_accepting(state) and have == labels:
                return True
            for label, target in automaton.transitions_from(state).items():
                new_have = have | {label} if label in labels else have
                config = (target, new_have)
                if config not in seen:
                    seen.add(config)
                    frontier.append(config)
        return False

    # ------------------------------------------------------------ summary

    def summary(self, parent: str) -> Dict[str, List[Tuple[str, ...]]]:
        """Human-readable constraint summary for ``parent`` (used by examples
        and by DESIGN documentation tooling)."""
        if not self.dtd.has_element(parent):
            return {"cardinality": [], "order": [], "exclusive": []}
        labels = sorted(self.dtd.child_labels(parent))
        cardinality = [
            (label, "<=1") for label in labels if self.at_most_once(parent, label)
        ]
        order = [
            (a, "<", b)
            for a in labels
            for b in labels
            if a != b and self.order_holds(parent, a, b)
        ]
        exclusive = [
            (a, "#", b)
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            if self.mutually_exclusive(parent, a, b)
        ]
        return {"cardinality": cardinality, "order": order, "exclusive": exclusive}

    @staticmethod
    def _useful_states(automaton) -> Set[int]:
        """States that lie on some accepting path (accessible ∧ co-accessible).

        Accessibility from the start state is guaranteed by construction, so
        only co-accessibility needs checking, which ``reachable_labels``
        already encodes: a non-accepting state with no reachable labels is a
        dead end.
        """
        useful: Set[int] = set()
        for state in range(automaton.state_count):
            if automaton.is_accepting(state) or automaton.reachable_labels(state):
                useful.add(state)
        return useful
