#!/usr/bin/env python3
"""Check that code references in the repo's documentation resolve.

Documentation rots silently; this keeps the architecture book *and* the
README honest.  Two kinds of backtick-quoted references are checked
against the working tree, in every document, in one run — all broken
references are listed together rather than stopping at the first
offending file:

* **paths** (anything containing ``/`` or ending in ``.py``/``.md``) must
  exist relative to the repository root; bare ``*.py`` filenames may also
  live in ``benchmarks/``, ``scripts/``, or ``tests/``;
* **symbols** (``ClassName.method``-style dotted names, plus a list of
  bare class names the documents lean on) must be defined somewhere under
  ``src/`` — checked textually (``class X`` / ``def y``), so the script
  needs no imports and runs on any Python.  Dotted references that name a
  module (``repro.runtime.plan_cache``) resolve against ``src/`` as a
  module path instead.

Exit status 0 when everything resolves; 1 with a listing otherwise.
Run from the repository root (CI does):  ``python scripts/check_docs_refs.py``.
"""

from __future__ import annotations

import builtins
import os
import re
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = (
    os.path.join("docs", "ARCHITECTURE.md"),
    "README.md",
)
#: Directories a bare ``something.py`` reference may resolve into.
_SCRIPT_DIRS = ("", "benchmarks", "scripts", "tests")

#: Bare backticked names that must exist as `class <name>` under src/.
_CLASS_LIKE = re.compile(r"^[A-Z][A-Za-z0-9]+$")
#: Dotted references: `Owner.member` or `pkg.mod.Symbol`.
_DOTTED = re.compile(r"^[A-Za-z_][\w.]*\.[A-Za-z_]\w*$")
#: References that are CLI flags, literals, or prose — never checked.
_SKIP = re.compile(
    r"^(-|--|python |PYTHONPATH|dict$|await |async |fluxrepro\b|repro )"
)
#: Stdlib roots: `time.sleep`-style references are the language's, not ours.
_STDLIB_ROOTS = {"time", "threading", "asyncio", "ast", "tokenize", "io",
                 "os", "sys", "json", "pickle", "re"}


def _source_text() -> str:
    chunks = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path, "r", encoding="utf-8") as handle:
                    chunks.append(handle.read())
    return "\n".join(chunks)


def _is_path(ref: str) -> bool:
    return ("/" in ref and " " not in ref) or ref.endswith((".py", ".md"))


def _path_resolves(ref: str) -> bool:
    if "*" in ref:
        return True  # glob patterns describe families, not files
    if os.path.exists(os.path.join(ROOT, ref)):
        return True
    if "/" not in ref:
        return any(
            os.path.exists(os.path.join(ROOT, where, ref)) for where in _SCRIPT_DIRS
        )
    return False


def _module_resolves(ref: str) -> bool:
    """``repro.runtime.plan_cache`` → ``src/repro/runtime/plan_cache[.py]``."""
    base = os.path.join(ROOT, "src", *ref.split("."))
    return os.path.isdir(base) or os.path.exists(base + ".py")


def check_document(relpath: str, source: str) -> "tuple[int, List[str]]":
    """Returns (references checked, failure lines) for one document."""
    doc = os.path.join(ROOT, relpath)
    if not os.path.exists(doc):
        return 0, [f"{relpath}: document is missing"]
    with open(doc, "r", encoding="utf-8") as handle:
        text = handle.read()
    failures: List[str] = []
    checked = 0
    for ref in sorted(set(re.findall(r"`([^`\n]+)`", text))):
        ref = ref.strip()
        if not ref or ref.startswith(".") or _SKIP.search(ref):
            continue
        if _is_path(ref):
            checked += 1
            if not _path_resolves(ref):
                failures.append(f"{relpath}: path does not exist: {ref}")
        elif _DOTTED.match(ref):
            if ref.split(".", 1)[0] in _STDLIB_ROOTS:
                continue
            checked += 1
            if _module_resolves(ref):
                continue
            # The trailing member must be defined somewhere under src/
            # (method, function, class, or module attribute).
            member = ref.split("(")[0].split(".")[-1]
            if not re.search(
                rf"^\s*(?:class|def|async def)\s+{re.escape(member)}\b"
                rf"|^\s*{re.escape(member)}\s*[:=]"
                rf"|^{re.escape(member)}\s*=",
                source,
                re.MULTILINE,
            ):
                failures.append(f"{relpath}: symbol not found under src/: {ref} ({member})")
        elif _CLASS_LIKE.match(ref):
            if hasattr(builtins, ref):
                continue  # `ValueError` & co. are the language's, not ours
            checked += 1
            if not re.search(rf"^\s*class\s+{re.escape(ref)}\b", source, re.MULTILINE):
                failures.append(f"{relpath}: class not found under src/: {ref}")
    return checked, failures


def main() -> int:
    source = _source_text()
    failures: List[str] = []
    checked = 0
    for relpath in DOCS:
        doc_checked, doc_failures = check_document(relpath, source)
        checked += doc_checked
        failures.extend(doc_failures)
    for failure in failures:
        print(failure, file=sys.stderr)
    print(
        f"checked {checked} references across {len(DOCS)} documents, "
        f"{len(failures)} unresolved"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
