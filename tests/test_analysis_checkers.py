"""Golden-fixture tests: each checker reports exact codes and lines.

The fixtures under ``tests/fixtures/analysis/`` seed one violation per
documented finding code plus known-clean twins; these tests pin the
checker output to them exactly, so any drift in a checker's rules shows
up as a diff against a human-readable fixture, not as silence.
"""

import os

from repro.analysis import default_checkers, run_lint
from repro.analysis.core import run_checkers

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "analysis")


def findings_for(*names):
    paths = [os.path.join(FIXTURES, name) for name in names]
    result = run_lint(paths)
    assert result.errors == []
    return result.findings


def codes_and_lines(findings):
    return [(f.code, f.line) for f in findings]


class TestLockDiscipline:
    def test_seeded_violations_exact(self):
        findings = findings_for("lock_violations.py")
        assert codes_and_lines(findings) == [
            ("LD001", 22),
            ("LD002", 26),
            ("LD003", 29),
            ("LD004", 32),
        ]
        by_code = {f.code: f for f in findings}
        assert "RacyCounter.peek" in by_code["LD001"].message
        assert "self._count is guarded by self._lock" in by_code["LD001"].message
        assert "read under self._aux" in by_code["LD002"].message
        assert "never holds that lock" in by_code["LD003"].message
        assert "needs a reason" in by_code["LD004"].message

    def test_clean_twin_passes(self):
        assert findings_for("lock_clean.py") == []


class TestHotLoop:
    def test_seeded_violations_exact(self):
        findings = findings_for("hot_violations.py")
        assert codes_and_lines(findings) == [
            ("HL001", 12),
            ("HL003", 13),
            ("HL004", 15),
            ("HL002", 19),
            ("HL001", 24),
            ("HL006", 24),
        ]
        by_line = {(f.code, f.line): f for f in findings}
        assert "list display" in by_line[("HL001", 12)].message
        assert "self._limit loaded 2x" in by_line[("HL002", 19)].message
        assert "dict display" in by_line[("HL001", 24)].message

    def test_clean_twin_passes(self):
        assert findings_for("hot_clean.py") == []

    def test_unmarked_required_hot_function_is_flagged(self):
        # The service/dispatcher.py fixture strips route's marker only.
        findings = [f for f in findings_for(".") if f.path == "service/dispatcher.py"]
        assert codes_and_lines(findings) == [("HL005", 1)]
        assert "SharedProjectionIndex.route" in findings[0].message
        # The runtime/xsax.py fixture strips the end handler's marker only.
        findings = [f for f in findings_for(".") if f.path == "runtime/xsax.py"]
        assert codes_and_lines(findings) == [("HL005", 1)]
        assert "XSAXReader._end" in findings[0].message


class TestAsyncBlocking:
    def test_seeded_violations_exact(self):
        findings = findings_for("async_violations.py")
        assert codes_and_lines(findings) == [
            ("AB001", 11),
            ("AB002", 12),
            ("AB003", 13),
            ("AB004", 14),
            ("AB003", 15),
            ("AB005", 15),
        ]
        by_line = {(f.code, f.line): f for f in findings}
        assert "time.sleep()" in by_line[("AB001", 11)].message
        assert ".recv()" in by_line[("AB002", 12)].message
        assert "open()" in by_line[("AB003", 13)].message
        assert ".acquire() without await" in by_line[("AB004", 14)].message

    def test_clean_twin_passes(self):
        assert findings_for("async_clean.py") == []


class TestPickleSafety:
    def test_seeded_violations_exact(self):
        findings = findings_for("pickle_violations.py")
        assert codes_and_lines(findings) == [
            ("PS001", 12),
            ("PS002", 18),
            ("PS003", 20),
            ("PS004", 26),
        ]
        by_code = {f.code: f for f in findings}
        assert "StepNode" in by_code["PS001"].message
        assert "__getstate__ without __setstate__" in by_code["PS002"].message
        assert "unpicklable type Lock" in by_code["PS003"].message
        assert "ShippedExtra" in by_code["PS004"].message

    def test_unreachable_class_is_out_of_scope(self):
        findings = findings_for("pickle_violations.py")
        assert not any("Unreachable" in f.message for f in findings)

    def test_clean_twin_passes(self):
        assert findings_for("pickle_clean.py") == []


class TestWholeFixtureTree:
    def test_every_documented_code_is_seeded(self):
        findings = findings_for(".")
        seeded = {f.code for f in findings}
        expected = {
            "LD001", "LD002", "LD003", "LD004",
            "HL001", "HL002", "HL003", "HL004", "HL005", "HL006",
            "AB001", "AB002", "AB003", "AB004", "AB005",
            "PS001", "PS002", "PS003", "PS004",
        }
        assert seeded == expected

    def test_findings_are_sorted_and_deterministic(self):
        first, errors1 = run_checkers([FIXTURES], default_checkers())
        second, errors2 = run_checkers([FIXTURES], default_checkers())
        assert errors1 == errors2 == []
        assert first == second
        assert first == sorted(first, key=lambda f: f.sort_key())
