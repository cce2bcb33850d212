"""Property-based tests (hypothesis) for core data structures and invariants."""

import random
import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dtd.automaton import build_automaton
from repro.dtd.model import (
    Choice,
    ContentParticle,
    ElementDecl,
    Name,
    OneOrMore,
    Optional_,
    Sequence,
    ZeroOrMore,
)
from repro.runtime.buffers import BufferManager
from repro.xmlstream.parser import parse_events
from repro.xmlstream.serializer import escape_attribute, escape_text, serialize_tree
from repro.xmlstream.tree import XMLElement, build_tree, parse_tree, tree_to_events

# --------------------------------------------------------------------- trees

_TAGS = ["a", "b", "c", "item", "node"]
_TEXTS = st.text(
    alphabet=string.ascii_letters + string.digits + " .,;:!?&<>\"'",
    min_size=1,
    max_size=20,
)
_ATTR_VALUES = st.text(
    alphabet=string.ascii_letters + string.digits + " &<>\"'",
    max_size=12,
)


@st.composite
def xml_trees(draw, depth=3):
    """Random XML trees with text, attributes, and nested elements."""
    tag = draw(st.sampled_from(_TAGS))
    attr_names = draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True, max_size=2))
    attrs = {name: draw(_ATTR_VALUES) for name in attr_names}
    element = XMLElement(tag, attrs)
    if depth <= 0:
        if draw(st.booleans()):
            element.append_text(draw(_TEXTS))
        return element
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.booleans()):
            element.append(draw(xml_trees(depth=depth - 1)))
        else:
            element.append_text(draw(_TEXTS))
    return element


class TestXMLRoundTrips:
    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_round_trip(self, tree):
        text = serialize_tree(tree)
        reparsed = parse_tree(text, keep_whitespace=True)
        assert reparsed.deep_equal(tree)

    @given(xml_trees())
    @settings(max_examples=40, deadline=None)
    def test_tree_events_tree_round_trip(self, tree):
        rebuilt = build_tree(tree_to_events(tree, document=True))
        assert rebuilt.deep_equal(tree)

    @given(_TEXTS)
    @settings(max_examples=60, deadline=None)
    def test_text_escaping_round_trips(self, text):
        parsed = parse_tree(f"<a>{escape_text(text)}</a>", keep_whitespace=True)
        assert parsed.string_value() == text

    @given(_ATTR_VALUES)
    @settings(max_examples=60, deadline=None)
    def test_attribute_escaping_round_trips(self, value):
        parsed = parse_tree(f'<a v="{escape_attribute(value)}"/>')
        assert parsed.get("v") == value

    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_size_estimate_is_monotone_in_children(self, tree):
        base = tree.size_estimate()
        tree.append(XMLElement("extra"))
        assert tree.size_estimate() > base


# ------------------------------------------------------------ content models


@st.composite
def content_particles(draw, depth=2) -> ContentParticle:
    labels = ["a", "b", "c", "d"]
    if depth <= 0:
        return Name(draw(st.sampled_from(labels)))
    kind = draw(st.sampled_from(["name", "seq", "choice", "star", "plus", "opt"]))
    if kind == "name":
        return Name(draw(st.sampled_from(labels)))
    if kind in ("seq", "choice"):
        parts = tuple(
            draw(content_particles(depth=depth - 1))
            for _ in range(draw(st.integers(min_value=2, max_value=3)))
        )
        return Sequence(parts) if kind == "seq" else Choice(parts)
    inner = draw(content_particles(depth=depth - 1))
    if kind == "star":
        return ZeroOrMore(inner)
    if kind == "plus":
        return OneOrMore(inner)
    return Optional_(inner)


def sample_word(particle: ContentParticle, rng: random.Random, budget=8):
    """Sample one word from the language of ``particle``."""
    if isinstance(particle, Name):
        return [particle.name]
    if isinstance(particle, Sequence):
        word = []
        for part in particle.parts:
            word.extend(sample_word(part, rng, budget))
        return word
    if isinstance(particle, Choice):
        return sample_word(rng.choice(particle.parts), rng, budget)
    if isinstance(particle, ZeroOrMore):
        repeats = rng.randint(0, 2) if budget > 0 else 0
        word = []
        for _ in range(repeats):
            word.extend(sample_word(particle.part, rng, budget - 2))
        return word
    if isinstance(particle, OneOrMore):
        repeats = rng.randint(1, 2) if budget > 0 else 1
        word = []
        for _ in range(repeats):
            word.extend(sample_word(particle.part, rng, budget - 2))
        return word
    if isinstance(particle, Optional_):
        if rng.random() < 0.5:
            return []
        return sample_word(particle.part, rng, budget)
    return []


class TestContentModelProperties:
    @given(content_particles(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_sampled_words_are_accepted(self, particle, seed):
        rng = random.Random(seed)
        automaton = build_automaton(ElementDecl("x", particle))
        for _ in range(3):
            word = sample_word(particle, rng)
            assert automaton.accepts(word), (particle.to_dtd_syntax(), word)

    @given(content_particles(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_constraint_is_sound(self, particle, seed):
        rng = random.Random(seed)
        for _ in range(3):
            word = sample_word(particle, rng)
            for label in particle.labels():
                assert particle.min_count(label) <= word.count(label)
                assert word.count(label) <= particle.max_count(label)

    @given(content_particles(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_order_constraint_is_sound(self, particle, seed):
        from repro.dtd.schema import DTD

        rng = random.Random(seed)
        dtd = DTD([ElementDecl("x", particle)], root="x")
        constraints = dtd.constraints()
        labels = sorted(particle.labels())
        words = [sample_word(particle, rng) for _ in range(4)]
        for before in labels:
            for after in labels:
                if not constraints.order_holds("x", before, after):
                    continue
                for word in words:
                    positions_before = [i for i, l in enumerate(word) if l == before]
                    positions_after = [i for i, l in enumerate(word) if l == after]
                    if positions_before and positions_after:
                        assert max(positions_before) < min(positions_after) or before == after

    @given(content_particles())
    @settings(max_examples=60, deadline=None)
    def test_nullable_agrees_with_automaton(self, particle):
        automaton = build_automaton(ElementDecl("x", particle))
        assert automaton.accepts([]) == particle.nullable()


# --------------------------------------------------------------- buffers


class TestBufferManagerProperties:
    @given(st.lists(st.integers(min_value=-200, max_value=300), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_peak_equals_max_running_total(self, deltas):
        manager = BufferManager()
        running = 0
        expected_peak = 0
        for delta in deltas:
            if delta >= 0:
                manager.grow(delta)
                running += delta
            else:
                manager.release(-delta)
                running = max(0, running + delta)
            expected_peak = max(expected_peak, running)
            assert manager.current_bytes == running
        assert manager.peak_bytes == expected_peak


# ------------------------------------------------------------ engine parity


class TestEngineAgreementProperties:
    @given(
        num_books=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=5_000),
        conform_to=st.sampled_from(["strong", "weak"]),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_flux_and_dom_agree_on_random_bibliographies(self, num_books, seed, conform_to):
        from repro.engines.dom_engine import DomEngine
        from repro.engines.flux_engine import FluxEngine
        from repro.workloads.bibgen import generate_bibliography
        from repro.workloads.dtds import BIB_DTD_STRONG, BIB_DTD_WEAK
        from repro.workloads.queries import get_query

        dtd = BIB_DTD_STRONG if conform_to == "strong" else BIB_DTD_WEAK
        document = generate_bibliography(num_books=num_books, seed=seed, conform_to=conform_to)
        query = get_query("BIB-Q3").xquery
        flux = FluxEngine(dtd).execute(query, document)
        dom = DomEngine().execute(query, document)
        assert flux.output == dom.output
        assert flux.peak_buffer_bytes <= dom.peak_buffer_bytes


# ------------------------------------------------------- fleet differential


class TestFleetDifferentialProperties:
    """Random fleets of aliased + distinct queries vs solo runs.

    Hypothesis drives the fleet shape (how many base structures, how many
    total registrations), the serving face, and the feed chunking; the
    differential harness asserts every subscriber's shared output is
    byte-identical to an independent solo run of its exact query text.
    """

    @given(
        bases=st.integers(min_value=1, max_value=4),
        total=st.integers(min_value=1, max_value=10),
        face=st.sampled_from(["sync", "async"]),
        cuts=st.lists(st.integers(min_value=1, max_value=5_000), max_size=6),
        num_books=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_fleets_match_solo_under_random_chunkings(
        self, bases, total, face, cuts, num_books
    ):
        from repro.bench.fleets import (
            make_fleet,
            run_shared,
            run_shared_async,
            run_solo,
        )
        from repro.workloads.bibgen import generate_bibliography
        from repro.workloads.dtds import BIB_DTD_STRONG
        from repro.workloads.queries import queries_for_workload

        base_texts = [
            spec.xquery for spec in queries_for_workload("bib")[:bases]
        ]
        fleet = make_fleet(base_texts, total)
        document = generate_bibliography(num_books=num_books, seed=11)
        chunking = cuts or None
        if face == "async":
            shared = run_shared_async(
                fleet, document, dtd=BIB_DTD_STRONG, chunking=chunking
            )
        else:
            shared, service = run_shared(
                fleet, document, dtd=BIB_DTD_STRONG, chunking=chunking
            )
            # The pass collapsed the fleet to its distinct structures.
            assert service.metrics.last_pass.structures == min(bases, total)
        solo = run_solo(fleet, document, dtd=BIB_DTD_STRONG)
        assert set(shared) == set(solo)
        for key, expected in solo.items():
            assert shared[key] == expected, key
