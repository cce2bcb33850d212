"""Buffer management for the streamed runtime.

"By allowing for the conscious use of main memory buffers, [FluX] supports
reasoning over the employment of buffers during query evaluation."  At
runtime that reasoning materializes here: every byte an engine retains goes
through the :class:`BufferManager`, which keeps the running and peak totals
reported by the benchmarks.

Two kinds of objects are managed:

* **scope buffers** — for each active ``process-stream`` variable, the
  materialized child subtrees of the labels the buffer description forest
  marked as needed (plus, when a whole-subtree dependency exists, the fully
  materialized element);
* **transient materializations** — subtrees materialized to dispatch an
  ``on`` handler whose element also had to be buffered, and whole documents
  or projected documents accounted by the baseline engines.

:class:`StreamScopeNode` adapts a scope (attributes from the start tag plus
the buffered children) to the node-navigation protocol of the tree
evaluator, so buffered ``on-first`` bodies evaluate against buffers without
any special cases in the evaluator.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import BufferError_
from repro.runtime.stats import RuntimeStats
from repro.xmlstream.tree import XMLElement, XMLNode, XMLText


class BufferManager:
    """Central accounting of buffered bytes.

    All sizes are the ``size_estimate`` of the buffered trees (text length
    plus a small per-node constant), which makes numbers comparable across
    the FluX, projection, and DOM engines.
    """

    def __init__(self, stats: Optional[RuntimeStats] = None):
        self.stats = stats if stats is not None else RuntimeStats()
        self._live_bytes = 0

    @property
    def current_bytes(self) -> int:
        """Bytes currently held in buffers."""
        return self._live_bytes

    @property
    def peak_bytes(self) -> int:
        """Largest number of bytes ever held simultaneously."""
        return self.stats.peak_buffer_bytes

    def account_tree(self, node: XMLElement) -> int:
        """Account a freshly materialized subtree; returns its size."""
        size = node.size_estimate()
        self.grow(size)
        self.stats.buffered_nodes += node.node_count()
        return size

    def grow(self, amount: int) -> None:
        """Record ``amount`` new buffered bytes."""
        if amount < 0:
            raise BufferError_("buffer growth must be non-negative")
        self._live_bytes += amount
        self.stats.buffer_grow(amount)

    def release(self, amount: int) -> None:
        """Record that ``amount`` buffered bytes were freed."""
        if amount < 0:
            raise BufferError_("buffer release must be non-negative")
        self._live_bytes = max(0, self._live_bytes - amount)
        self.stats.buffer_shrink(amount)


class ScopeBuffers:
    """Buffers attached to one ``process-stream`` scope instance.

    Holds the materialized children per label and, when requested, the whole
    element; releases everything (and tells the manager) when the scope
    closes.
    """

    def __init__(self, manager: BufferManager):
        self._manager = manager
        self._by_label: Dict[str, List[XMLElement]] = {}
        self._bytes = 0
        self.full_element: Optional[XMLElement] = None
        self._closed = False

    def add_child(self, label: str, subtree: XMLElement) -> None:
        """Buffer a materialized child subtree under ``label``."""
        self._ensure_open()
        self._by_label.setdefault(label, []).append(subtree)
        self._bytes += self._manager.account_tree(subtree)

    def ensure_full_element(self, tag: str, attrs: Dict[str, str]) -> XMLElement:
        """Create (once) the skeleton element used for incremental
        whole-subtree buffering and return it."""
        self._ensure_open()
        if self.full_element is None:
            self.full_element = XMLElement(tag, dict(attrs))
            size = self.full_element.size_estimate()
            self._bytes += size
            self._manager.grow(size)
        return self.full_element

    def append_full_child(self, subtree: XMLElement) -> None:
        """Append a materialized child to the whole-subtree buffer."""
        self._ensure_open()
        if self.full_element is None:
            raise BufferError_("ensure_full_element must be called first")
        self.full_element.append(subtree)
        self._bytes += self._manager.account_tree(subtree)

    def append_full_text(self, text: str) -> None:
        """Append character data to the whole-subtree buffer."""
        self._ensure_open()
        if self.full_element is None:
            raise BufferError_("ensure_full_element must be called first")
        self.full_element.append_text(text)
        self._bytes += len(text)
        self._manager.grow(len(text))

    def children_for(self, label: str) -> List[XMLElement]:
        """Buffered children with the given label (possibly empty)."""
        return self._by_label.get(label, [])

    def all_children(self) -> List[XMLElement]:
        """All buffered children, grouped by label."""
        result: List[XMLElement] = []
        for children in self._by_label.values():
            result.extend(children)
        return result

    @property
    def buffered_bytes(self) -> int:
        return self._bytes

    def close(self) -> None:
        """Release every buffer of this scope."""
        if self._closed:
            return
        self._closed = True
        self._manager.release(self._bytes)
        self._by_label.clear()
        self.full_element = None
        self._bytes = 0

    def _ensure_open(self) -> None:
        if self._closed:
            raise BufferError_("cannot add to a closed scope buffer")


class StreamScopeNode:
    """Node-protocol adapter over a stream scope.

    The tree evaluator navigates nodes through ``child_elements``,
    ``descendants``, ``get``, ``string_value`` and ``children``; this adapter
    answers those calls from the scope's start-tag attributes and buffered
    children, so buffered sub-expressions are evaluated with the ordinary
    evaluator.

    Limitations (by design, matching what the scheduler guarantees): when
    only selected labels were buffered, children of other labels appear
    empty, and document order *across different labels* is not preserved —
    the scheduler only evaluates per-label paths against such scopes.
    """

    def __init__(self, tag: str, attrs: Dict[str, str], buffers: ScopeBuffers):
        self.tag = tag
        self.attrs = dict(attrs)
        self._buffers = buffers

    # ------------------------------------------------------- navigation API

    @property
    def children(self) -> List[XMLNode]:
        if self._buffers.full_element is not None:
            return self._buffers.full_element.children
        return list(self._buffers.all_children())

    def child_elements(self, tag: Optional[str] = None) -> List[XMLElement]:
        if self._buffers.full_element is not None:
            return self._buffers.full_element.child_elements(tag)
        if tag is None or tag == "*":
            return self._buffers.all_children()
        return self._buffers.children_for(tag)

    def first_child(self, tag: str) -> Optional[XMLElement]:
        children = self.child_elements(tag)
        return children[0] if children else None

    def descendants(self, tag: Optional[str] = None) -> Iterator[XMLElement]:
        if self._buffers.full_element is not None:
            yield from self._buffers.full_element.descendants(tag)
            return
        for child in self.child_elements(None):
            if tag is None or tag == "*" or child.tag == tag:
                yield child
            yield from child.descendants(tag)

    def get(self, attr: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrs.get(attr, default)

    def string_value(self) -> str:
        if self._buffers.full_element is not None:
            return self._buffers.full_element.string_value()
        return "".join(child.string_value() for child in self.child_elements(None))

    def size_estimate(self) -> int:
        return self._buffers.buffered_bytes

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.child_elements(None))

    # ------------------------------------------------------------- exports

    def to_element(self) -> XMLElement:
        """Materialize the scope as a plain element (used for deep copies)."""
        element = XMLElement(self.tag, self.attrs)
        for child in self.children:
            if isinstance(child, XMLText):
                element.append_text(child.text)
            else:
                element.append(child)
        return element

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamScopeNode(<{self.tag}>, {self._buffers.buffered_bytes} B buffered)"
