"""Every module of the package imports, and removed modules stay removed.

Deleting a module breaks whoever still imports it only when that importer
is loaded; a module no test happens to load would carry the broken import
unnoticed.  Importing each module by name closes that gap.  The query
analyzer lives in :mod:`repro.analysis` itself: the old ``query``
subpackage and the source checkers that sat beside it are gone, with no
shim left behind.
"""

import importlib
import importlib.util
import pkgutil

import pytest

import repro
import repro.analysis

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)

REMOVED = [
    "repro.analysis.query",
    "repro.analysis.core",
    "repro.analysis.hot_loop",
    "repro.analysis.lock_discipline",
    "repro.analysis.async_blocking",
    "repro.analysis.pickle_safety",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    assert importlib.import_module(module).__name__ == module


@pytest.mark.parametrize("module", REMOVED)
def test_removed_module_is_gone(module):
    assert importlib.util.find_spec(module) is None


def test_analysis_exports_resolve():
    for name in repro.analysis.__all__:
        assert getattr(repro.analysis, name) is not None, name
