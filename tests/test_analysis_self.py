"""Self-check: the repo's own source passes its own static-analysis gate.

This is the committed contract behind the CI ``static-analysis`` job: a
``repro lint`` run over ``src/repro`` produces no findings beyond the
committed baseline (which is empty — every real finding was fixed or
explicitly annotated with a reason).
"""

import ast
import json
import os

import repro
from repro.analysis import default_lint_root, run_lint
from repro.analysis.hot_loop import REQUIRED_HOT

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "scripts", "lint_baseline.json")


def test_default_lint_root_is_the_package():
    assert default_lint_root() == os.path.dirname(os.path.abspath(repro.__file__))


def test_src_repro_is_clean_against_committed_baseline():
    result = run_lint([default_lint_root()], baseline_path=BASELINE)
    assert result.errors == []
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"unbaselined lint findings:\n{rendered}"


def test_committed_baseline_is_empty():
    # The gate's promise is stronger than "no *new* findings": every finding
    # in src/repro was fixed or carries an in-source annotation, so the
    # baseline holds nothing.  Loosen this only with a written reason.
    with open(BASELINE, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload == {"version": 1, "findings": []}


def test_required_hot_functions_exist():
    # REQUIRED_HOT pins qualnames in real modules; if a refactor renames
    # them, the HL005 contract must move with it rather than rot.
    root = default_lint_root()
    for suffix, qualname in REQUIRED_HOT:
        path = os.path.join(root, *suffix.split("/"))
        assert os.path.exists(path), suffix
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        assert qualname in _qualnames(tree), f"{qualname} no longer defined in {suffix}"


def _qualnames(tree):
    """``Class.method`` and ``function.<locals>.inner`` names, as the checker forms them."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return names
