"""Unit tests for the event model."""

import copy
import pickle

import pytest

from repro.runtime.xsax import OnFirstEvent
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
    element_events,
    events_depth_ok,
)


class TestEventValues:
    def test_events_are_hashable_and_comparable(self):
        assert StartElement("a") == StartElement("a")
        assert StartElement("a") != StartElement("b")
        assert len({StartElement("a"), StartElement("a"), EndElement("a")}) == 2

    def test_attributes_dict_view(self):
        event = StartElement("a", (("x", "1"), ("y", "2")))
        assert event.attributes == {"x": "1", "y": "2"}

    def test_attributes_default_empty(self):
        assert StartElement("a").attributes == {}

    def test_size_estimates(self):
        assert Text("hello").size_estimate() == 5
        assert StartElement("abc").size_estimate() >= len("abc")
        assert StartElement("a", (("k", "vvv"),)).size_estimate() > StartElement("a").size_estimate()
        assert EndElement("abc").size_estimate() >= len("abc")
        assert StartDocument().size_estimate() > 0
        assert EndDocument().size_estimate() > 0


#: One of each class, with its ``repr``.
SAMPLES = [
    (StartDocument(), "StartDocument()"),
    (EndDocument(), "EndDocument()"),
    (StartElement("a"), "StartElement(name='a', attrs=())"),
    (StartElement("a", (("x", "1"),)), "StartElement(name='a', attrs=(('x', '1'),))"),
    (EndElement("a"), "EndElement(name='a')"),
    (Text("a"), "Text(text='a')"),
    (
        OnFirstEvent(3, "book", frozenset({"title"})),
        "OnFirstEvent(condition_id=3, element_type='book', labels=frozenset({'title'}))",
    ),
]
EVENTS = [event for event, _ in SAMPLES]


class TestEventContract:
    """Slotted, immutable, closed value classes — ``OnFirstEvent`` included."""

    @pytest.mark.parametrize("event", EVENTS, ids=repr)
    def test_no_instance_dict_and_no_mutation(self, event):
        assert not hasattr(event, "__dict__")
        for name in (*type(event).__slots__, "anything"):
            with pytest.raises(AttributeError):
                setattr(event, name, "changed")
            with pytest.raises(AttributeError):
                delattr(event, name)
        assert repr(event) == dict(SAMPLES)[event]

    @pytest.mark.parametrize("event", EVENTS, ids=repr)
    def test_copies_are_equal_values(self, event):
        clones = [copy.copy(event), copy.deepcopy(event)]
        clones += [pickle.loads(pickle.dumps(event, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is type(event)
            assert clone == event and hash(clone) == hash(event)
            assert repr(clone) == repr(event)

    def test_same_payload_under_another_class_is_another_value(self):
        assert Text("a") != EndElement("a")
        assert EndElement("a") != StartElement("a")
        assert StartDocument() != EndDocument()
        assert StartElement("a") != "a" and StartElement("a") != ("a", ())
        assert len(set(EVENTS)) == len(EVENTS)

    @pytest.mark.parametrize("leaf", sorted({type(e) for e in EVENTS}, key=lambda c: c.__name__))
    def test_leaf_classes_are_closed(self, leaf):
        with pytest.raises(TypeError):
            type("Sub", (leaf,), {})
        with pytest.raises(TypeError):
            type("Sub", (leaf,), {"__slots__": ()})


class TestHelpers:
    def test_element_events_wraps_body(self):
        events = list(element_events("a", {"x": "1"}, [Text("hi")]))
        assert events[0] == StartElement("a", (("x", "1"),))
        assert events[-1] == EndElement("a")
        assert events[1] == Text("hi")

    def test_events_depth_ok_balanced(self):
        events = [StartElement("a"), StartElement("b"), EndElement("b"), EndElement("a")]
        assert events_depth_ok(events)

    def test_events_depth_ok_detects_mismatch(self):
        assert not events_depth_ok([StartElement("a"), EndElement("b")])
        assert not events_depth_ok([StartElement("a")])
        assert not events_depth_ok([EndElement("a")])
