"""The :class:`DTD` schema object.

A :class:`DTD` bundles the element declarations of a document type, gives
access to per-element content-model automata (built lazily and cached), and
is the single argument the optimizer, the safety checker, and the XSAX parser
take to obtain schema information.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.errors import DTDSyntaxError
from repro.dtd.model import ANY, EMPTY, PCDATA, AttributeDecl, ElementDecl


class ElementTable:
    """What the per-event path needs to know about one element type.

    Derived once from the element's declaration and content-model automaton
    so the validator and XSAX step an open element with one dict lookup
    instead of ``has_element`` + ``automaton`` + ``step`` per start tag.
    Per automaton state, ``next`` holds the ``{child: successor}`` dict and
    ``remaining`` the labels that may still occur; ``accepting`` are the
    states an end tag may arrive in.  All three are ``None`` for an element
    whose children are not stepped (undeclared, or ``ANY`` content), and
    ``start`` is ``None`` for an undeclared one.
    """

    __slots__ = (
        "name", "declared", "any", "allows_text", "start", "next", "remaining", "accepting"
    )

    def __init__(self, name: str, decl: Optional[ElementDecl] = None, automaton=None) -> None:
        self.name = name
        self.declared = decl is not None
        self.any = automaton is not None and automaton.allows_any
        self.allows_text = decl.allows_text() if decl is not None else True
        self.start: Optional[int] = automaton.start_state if automaton is not None else None
        self.next: Optional[List[Dict[str, int]]] = None
        self.remaining: Optional[List[FrozenSet[str]]] = None
        self.accepting: Optional[FrozenSet[int]] = None
        if automaton is not None and not automaton.allows_any:
            states = range(automaton.state_count)
            self.next = [automaton.transitions_from(state) for state in states]
            self.remaining = [automaton.reachable_labels(state) for state in states]
            self.accepting = frozenset(s for s in states if automaton.is_accepting(s))


#: Undeclared names a table memo keeps; past it they are rebuilt per use,
#: so a document inventing names cannot grow a long-lived DTD without bound.
MAX_UNDECLARED_TABLES = 1024


class _ElementTables(dict):
    """``{element name: ElementTable}``; a missing name is built on first use."""

    def __init__(self, dtd: "DTD") -> None:
        super().__init__()
        self._dtd = dtd

    def __missing__(self, name: str) -> ElementTable:
        dtd = self._dtd
        if dtd.has_element(name):
            table = ElementTable(name, dtd.element(name), dtd.automaton(name))
        else:
            table = ElementTable(name)
        if table.declared or len(self) < MAX_UNDECLARED_TABLES:
            self[name] = table
        return table


class DTD:
    """A parsed document type definition.

    Parameters
    ----------
    elements:
        The element declarations, in declaration order.
    root:
        Name of the document root element.  When omitted, the root is
        inferred as the unique element that never occurs as a child of
        another declared element (falling back to the first declaration).
    attributes:
        Optional attribute declarations (kept for completeness; attributes do
        not participate in the constraint machinery).
    """

    def __init__(
        self,
        elements: Iterable[ElementDecl],
        root: Optional[str] = None,
        attributes: Optional[Iterable[AttributeDecl]] = None,
    ):
        self._elements: Dict[str, ElementDecl] = {}
        for decl in elements:
            if decl.name in self._elements:
                raise DTDSyntaxError(f"duplicate declaration for element {decl.name!r}")
            self._elements[decl.name] = decl
        if not self._elements:
            raise DTDSyntaxError("a DTD must declare at least one element")
        self.attributes: List[AttributeDecl] = list(attributes or [])
        self.root = root if root is not None else self._infer_root()
        if self.root not in self._elements:
            raise DTDSyntaxError(f"root element {self.root!r} is not declared")
        self._automata: Dict[str, "ContentModelAutomaton"] = {}
        self._constraints: Optional["SchemaConstraints"] = None
        self._element_tables: Optional[_ElementTables] = None

    def __getstate__(self) -> dict:
        # The element tables are derived data that refers back to this
        # object; a worker rebuilds them on its first event.
        state = dict(self.__dict__)
        del state["_element_tables"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._element_tables = None

    # ------------------------------------------------------------ accessors

    def element(self, name: str) -> ElementDecl:
        """Declaration of ``name``; raises :class:`DTDSyntaxError` if unknown."""
        try:
            return self._elements[name]
        except KeyError:
            raise DTDSyntaxError(f"element {name!r} is not declared in the DTD") from None

    def has_element(self, name: str) -> bool:
        """Whether ``name`` is declared."""
        return name in self._elements

    @property
    def element_names(self) -> List[str]:
        """Declared element names, in declaration order."""
        return list(self._elements)

    def declarations(self) -> List[ElementDecl]:
        """All element declarations, in declaration order."""
        return list(self._elements.values())

    def child_labels(self, name: str) -> FrozenSet[str]:
        """Element names that may occur as children of ``name``."""
        return self.element(name).child_labels()

    # ------------------------------------------------------------ analyses

    def _infer_root(self) -> str:
        children: Set[str] = set()
        for decl in self._elements.values():
            children |= decl.child_labels()
        candidates = [name for name in self._elements if name not in children]
        if len(candidates) == 1:
            return candidates[0]
        return next(iter(self._elements))

    def automaton(self, name: str) -> "ContentModelAutomaton":
        """The (cached) content-model automaton for element ``name``."""
        if name not in self._automata:
            from repro.dtd.automaton import build_automaton

            self._automata[name] = build_automaton(self.element(name))
        return self._automata[name]

    def element_tables(self) -> Dict[str, ElementTable]:
        """The (cached) per-element lookup tables of the per-event path.

        Index the mapping with ``[name]``: the table of a name not seen
        before — declared or not — is built and kept on that first access.
        """
        if self._element_tables is None:
            self._element_tables = _ElementTables(self)
        return self._element_tables

    def constraints(self) -> "SchemaConstraints":
        """The (cached) schema constraints derived from this DTD."""
        if self._constraints is None:
            from repro.dtd.constraints import SchemaConstraints

            self._constraints = SchemaConstraints(self)
        return self._constraints

    def reachable_elements(self) -> Set[str]:
        """Element names reachable from the root (declared and referenced)."""
        seen: Set[str] = set()
        frontier = [self.root]
        while frontier:
            name = frontier.pop()
            if name in seen or name not in self._elements:
                continue
            seen.add(name)
            frontier.extend(self._elements[name].child_labels())
        return seen

    def undeclared_children(self) -> Set[str]:
        """Child labels referenced in content models but never declared.

        Documents using such children cannot be validated below that label;
        the validator treats them as having ``ANY`` content.
        """
        missing: Set[str] = set()
        for decl in self._elements.values():
            for label in decl.child_labels():
                if label not in self._elements:
                    missing.add(label)
        return missing

    def fingerprint(self) -> str:
        """A stable digest of the schema's semantic content.

        Two DTDs with the same root, element declarations (names, content
        models, mixedness) and attribute declarations produce the same
        fingerprint, regardless of how their objects were built.  Used as
        the schema component of plan-cache keys: a compiled plan is only
        reusable under the exact schema whose constraints shaped it.
        """
        if getattr(self, "_fingerprint", None) is None:
            import hashlib

            parts = [f"root={self.root}"]
            parts.extend(
                sorted(
                    f"{decl.name}={decl.content.to_dtd_syntax()};mixed={decl.mixed}"
                    for decl in self._elements.values()
                )
            )
            parts.extend(
                sorted(
                    f"@{attr.element}.{attr.name}:{attr.attr_type}={attr.default}"
                    for attr in self.attributes
                )
            )
            digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
            self._fingerprint = digest
        return self._fingerprint

    # -------------------------------------------------------------- output

    def to_dtd_syntax(self) -> str:
        """Render the DTD as ``<!ELEMENT ...>`` declarations."""
        return "\n".join(decl.to_dtd_syntax() for decl in self._elements.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DTD(root={self.root!r}, elements={len(self._elements)})"
