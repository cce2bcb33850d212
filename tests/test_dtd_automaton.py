"""Unit tests for the content-model (Glushkov) automata."""

import pytest

from repro.dtd.automaton import (
    axis_max_count,
    build_automaton,
    recursive_elements,
    subtree_growth_degree,
)
from repro.dtd.model import INFINITY
from repro.dtd.parser import parse_dtd, parse_element_decl


def automaton_for(model):
    return build_automaton(parse_element_decl("x", model))


def occurrence_bounds(model, label):
    """``(min, max)`` occurrences of child ``label`` under content ``model``."""
    constraints = parse_dtd(f"<!ELEMENT x {model}>").constraints()
    return (
        constraints.min_occurrences("x", label),
        constraints.max_occurrences("x", label),
    )


class TestAcceptance:
    @pytest.mark.parametrize(
        "model,word,accepted",
        [
            ("(a,b)", ["a", "b"], True),
            ("(a,b)", ["b", "a"], False),
            ("(a,b)", ["a"], False),
            ("(a,b)", [], False),
            ("(a|b)", ["a"], True),
            ("(a|b)", ["b"], True),
            ("(a|b)", ["a", "b"], False),
            ("(a)*", [], True),
            ("(a)*", ["a", "a", "a"], True),
            ("(a)*", ["a", "b"], False),
            ("(a)+", [], False),
            ("(a)+", ["a", "a"], True),
            ("(a?)", [], True),
            ("(a?)", ["a"], True),
            ("(a?)", ["a", "a"], False),
            ("(a,(b|c)*,d)", ["a", "d"], True),
            ("(a,(b|c)*,d)", ["a", "b", "c", "b", "d"], True),
            ("(a,(b|c)*,d)", ["a", "b"], False),
            ("((a,b)+)", ["a", "b", "a", "b"], True),
            ("((a,b)+)", ["a", "b", "a"], False),
        ],
    )
    def test_word_acceptance(self, model, word, accepted):
        assert automaton_for(model).accepts(word) is accepted

    def test_figure1_book_model(self):
        automaton = automaton_for("(title,(author+|editor+),publisher,price)")
        assert automaton.accepts(["title", "author", "publisher", "price"])
        assert automaton.accepts(["title", "author", "author", "publisher", "price"])
        assert automaton.accepts(["title", "editor", "publisher", "price"])
        assert not automaton.accepts(["title", "author", "editor", "publisher", "price"])
        assert not automaton.accepts(["author", "title", "publisher", "price"])
        assert not automaton.accepts(["title", "publisher", "price"])

    def test_empty_content_model(self):
        automaton = automaton_for("EMPTY")
        assert automaton.accepts([])
        assert not automaton.accepts(["a"])

    def test_pcdata_model_has_no_element_children(self):
        automaton = automaton_for("(#PCDATA)")
        assert automaton.accepts([])
        assert not automaton.accepts(["a"])

    def test_any_model_accepts_everything(self):
        automaton = automaton_for("ANY")
        assert automaton.allows_any
        assert automaton.accepts([])
        assert automaton.accepts(["x", "y", "z"])


class TestReachableLabels:
    def test_initial_state_reachability(self):
        automaton = automaton_for("(a,(b|c)*,d)")
        assert automaton.reachable_labels(automaton.start_state) == {"a", "b", "c", "d"}

    def test_reachability_shrinks_as_input_is_consumed(self):
        automaton = automaton_for("(a,b,c)")
        state = automaton.start_state
        state = automaton.step(state, "a")
        assert automaton.reachable_labels(state) == {"b", "c"}
        state = automaton.step(state, "b")
        assert automaton.reachable_labels(state) == {"c"}
        state = automaton.step(state, "c")
        assert automaton.reachable_labels(state) == frozenset()

    def test_can_still_occur(self):
        automaton = automaton_for("(title,(author+|editor+),publisher,price)")
        state = automaton.start_state
        state = automaton.step(state, "title")
        assert automaton.can_still_occur(state, frozenset({"author"}))
        state = automaton.step(state, "author")
        # More authors may come, but no editor anymore.
        assert automaton.can_still_occur(state, frozenset({"author"}))
        assert not automaton.can_still_occur(state, frozenset({"editor"}))
        state = automaton.step(state, "publisher")
        assert not automaton.can_still_occur(state, frozenset({"author", "title"}))
        assert automaton.can_still_occur(state, frozenset({"price"}))

    def test_invalid_step_returns_none(self):
        automaton = automaton_for("(a,b)")
        assert automaton.step(automaton.start_state, "z") is None

    def test_weak_dtd_labels_always_reachable(self):
        automaton = automaton_for("(title|author)*")
        state = automaton.start_state
        for label in ["author", "title", "author"]:
            state = automaton.step(state, label)
            assert automaton.reachable_labels(state) == {"title", "author"}


class TestOccurrenceBounds:
    @pytest.mark.parametrize(
        "model,label,bounds",
        [
            ("(title,(author+|editor+),publisher,price)", "title", (1.0, 1.0)),
            ("(title,(author+|editor+),publisher,price)", "author", (0.0, INFINITY)),
            ("(title,(author+|editor+),publisher,price)", "publisher", (1.0, 1.0)),
            ("(a,(b|c)*,d)", "a", (1.0, 1.0)),
            ("(a,(b|c)*,d)", "b", (0.0, INFINITY)),
            ("(a,(b|c)*,d)", "d", (1.0, 1.0)),
            ("(a?)", "a", (0.0, 1.0)),
            ("((a,b)+)", "a", (1.0, INFINITY)),
        ],
    )
    def test_bounds_match_model(self, model, label, bounds):
        assert occurrence_bounds(model, label) == bounds

    def test_any_model_is_unbounded_in_everything(self):
        assert occurrence_bounds("ANY", "a") == (0.0, INFINITY)

    def test_mixed_content_children_are_unbounded(self):
        # (#PCDATA | em | code)* — mixed content repeats every child label.
        assert occurrence_bounds("(#PCDATA|em|code)*", "em") == (0.0, INFINITY)
        assert occurrence_bounds("(#PCDATA|em|code)*", "code") == (0.0, INFINITY)

    def test_absent_label_never_occurs(self):
        assert occurrence_bounds("(a,(b|c)*,d)", "z") == (0.0, 0.0)
        assert occurrence_bounds("(#PCDATA)", "a") == (0.0, 0.0)


RECURSIVE_DTD = """
<!ELEMENT doc (part+)>
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
"""

MIXED_DTD = """
<!ELEMENT doc (para+)>
<!ELEMENT para (#PCDATA | em | code)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT code (#PCDATA)>
"""


class TestDtdLevelAnalyses:
    def test_recursive_elements_found(self):
        dtd = parse_dtd(RECURSIVE_DTD)
        assert recursive_elements(dtd) == frozenset({"part"})

    def test_any_content_is_conservatively_recursive(self):
        dtd = parse_dtd("<!ELEMENT doc (a*)>\n<!ELEMENT a ANY>")
        assert "a" in recursive_elements(dtd)

    def test_non_recursive_dtd_is_empty(self):
        dtd = parse_dtd(MIXED_DTD)
        assert recursive_elements(dtd) == frozenset()

    def test_axis_max_count(self):
        dtd = parse_dtd(RECURSIVE_DTD)
        assert axis_max_count(dtd, "part", "name") == 1.0
        assert axis_max_count(dtd, "doc", "part") == INFINITY
        assert axis_max_count(dtd, "part", "price") == 0.0
        assert axis_max_count(dtd, "#document", "doc") == 1.0
        # Undeclared parents behave like ANY: no bound.
        assert axis_max_count(dtd, "mystery", "name") == INFINITY
        # ANY content repeats every label.
        dtd = parse_dtd("<!ELEMENT doc (a*)>\n<!ELEMENT a ANY>")
        assert axis_max_count(dtd, "a", "doc") == INFINITY

    def test_subtree_growth_degree_recursive_is_unbounded(self):
        dtd = parse_dtd(RECURSIVE_DTD)
        assert subtree_growth_degree(dtd, "part") == INFINITY
        assert subtree_growth_degree(dtd, "doc") == INFINITY
        assert subtree_growth_degree(dtd, "name") == 0.0

    def test_subtree_growth_degree_counts_nested_stars(self):
        dtd = parse_dtd(
            "<!ELEMENT bib (book*)>\n"
            "<!ELEMENT book (title, author*)>\n"
            "<!ELEMENT title (#PCDATA)>\n"
            "<!ELEMENT author (#PCDATA)>"
        )
        assert subtree_growth_degree(dtd, "author") == 0.0
        assert subtree_growth_degree(dtd, "book") == 1.0
        assert subtree_growth_degree(dtd, "bib") == 2.0
        assert subtree_growth_degree(dtd, "#document") == 2.0

    def test_mixed_content_subtree_is_one_level_unbounded(self):
        dtd = parse_dtd(MIXED_DTD)
        assert subtree_growth_degree(dtd, "para") == 1.0
