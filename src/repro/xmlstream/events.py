"""SAX-style event model for streaming XML.

The streaming parser (:mod:`repro.xmlstream.parser`) produces instances of the
classes defined here; the FluX runtime, the DTD validator and the XSAX parser
all operate on this event vocabulary.  Events are small immutable value
objects so they can be freely shared, compared in tests, and replayed.

The classes are hand-written with ``__slots__``: no instance ``__dict__``,
each field written once through its slot descriptor, assignment and deletion
refused afterwards.  The leaf classes are closed to subclassing, because
every per-event consumer dispatches on exact type (``type(event) is Text``).

The XSAX parser of the paper extends the vocabulary with *on-first* events;
that extension (a direct subclass of :class:`Event`, same contract) lives in
:mod:`repro.runtime.xsax` because it depends on the DTD machinery, not on
raw XML.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple


class Event:
    """Base class for all streaming events: a closed, immutable value type."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if Event not in cls.__bases__:
            raise TypeError(
                f"cannot subclass {cls.__bases__[0].__name__}: consumers dispatch on "
                "the exact event class"
            )

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # Default slot pickling restores through setattr, which is closed.
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: events are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: events are immutable")

    def size_estimate(self) -> int:
        """Return the approximate number of bytes this event represents.

        Used by the buffer manager for memory accounting.  Structural events
        cost a small constant; text costs its length.
        """
        return 8


class StartDocument(Event):
    """Emitted once, before any other event."""

    __slots__ = ()


class EndDocument(Event):
    """Emitted once, after the root element has been closed."""

    __slots__ = ()


class StartElement(Event):
    """Opening tag of an element.

    Attributes are stored as a tuple of ``(name, value)`` pairs so the event
    stays hashable; :attr:`attributes` exposes them as a dict.
    """

    __slots__ = ("name", "attrs")
    name: str
    attrs: Tuple[Tuple[str, str], ...]

    def __init__(self, name: str, attrs: Tuple[Tuple[str, str], ...] = ()) -> None:
        _set_start_name(self, name)
        _set_start_attrs(self, attrs)

    @property
    def attributes(self) -> Dict[str, str]:
        """Attributes of the element as a plain dictionary."""
        return dict(self.attrs)

    def size_estimate(self) -> int:
        attr_bytes = sum(len(k) + len(v) + 4 for k, v in self.attrs)
        return 16 + len(self.name) + attr_bytes


class EndElement(Event):
    """Closing tag of an element."""

    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set_end_name(self, name)

    def size_estimate(self) -> int:
        return 8 + len(self.name)


class Text(Event):
    """Character data between tags.

    The parser strips pure-whitespace runs between elements by default (they
    carry no information for the data-oriented documents the paper targets)
    but preserves whitespace inside mixed content.
    """

    __slots__ = ("text",)
    text: str

    def __init__(self, text: str) -> None:
        _set_text(self, text)

    def size_estimate(self) -> int:
        return len(self.text)


# The slot descriptors' own setters: the one way past ``Event.__setattr__``.
_set_start_name = StartElement.name.__set__  # type: ignore[attr-defined]
_set_start_attrs = StartElement.attrs.__set__  # type: ignore[attr-defined]
_set_end_name = EndElement.name.__set__  # type: ignore[attr-defined]
_set_text = Text.text.__set__  # type: ignore[attr-defined]


def element_events(name: str, attrs: Dict[str, str], body: Iterable[Event]) -> Iterator[Event]:
    """Wrap ``body`` events in a ``StartElement``/``EndElement`` pair.

    Convenience used by constructors in the runtime and by tests.
    """
    yield StartElement(name, tuple(sorted(attrs.items())) if attrs else ())
    yield from body
    yield EndElement(name)


def events_depth_ok(events: Iterable[Event]) -> bool:
    """Return ``True`` when start/end tags in ``events`` are balanced.

    This is a structural sanity check used by tests and by the serializer's
    strict mode; it does not validate against any schema.
    """
    stack: List[str] = []
    for event in events:
        if type(event) is StartElement:
            stack.append(event.name)
        elif type(event) is EndElement:
            if not stack or stack[-1] != event.name:
                return False
            stack.pop()
    return not stack
