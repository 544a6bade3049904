"""Every definition in ``src/repro`` has a caller in ``src/repro``.

A name that only tests, examples or a package ``__init__`` re-export
mention is code the program does not run: it goes, or it is listed in
``ALLOWED`` with the reason it stays.  The check reads the syntax
tree, so a comment or a docstring calls nothing: a name passes when the
non-``__init__`` modules of ``src/repro`` refer to it — as a name, an
attribute, an imported name, or a string spelling exactly it (a lint
table, a ``getattr``).  Dunders and click-decorated commands (called by
click, by name) are exempt.  The same reading pins the one function
that builds a run.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Names kept with no caller in ``src/repro``, each with its reason.
ALLOWED: Dict[str, str] = {
    "acquire_shared": "the perf ruler patches it to time shared-gate waits",
    "edges": "tests read the lock-order graph through it",
    "get_buffer": "asyncio.BufferedProtocol calls it",
    "buffer_updated": "asyncio.BufferedProtocol calls it",
    "read_page_entries": (
        "the binary-search baseline of benchmarks/bench_ablation_learned_index.py"
    ),
    "prove": "the reference prover for Definition 2's MHT, whose proofs verify_proof checks",
    "reset_lock_order": "tests reset the process-global lock-order graph with it",
    "verify_proof": "the reference verifier for Definition 2's MHT",
    "verify_prov": "the MPT and CMI baselines' proof verifiers; tests check their proofs",
}


def _is_click_command(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _definitions() -> List[Tuple[str, str]]:
    """``(name, "file:line")`` for every def and class under ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if _is_click_command(node):
                continue
            found.append((name, f"{path.relative_to(SRC.parent)}:{node.lineno}"))
    return found


def _reference(node: ast.AST) -> str:
    """The name ``node`` refers to, or ``""``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value.isidentifier() else ""
    return ""


def _census() -> Tuple[List[Tuple[str, str]], "Counter[str]"]:
    """The definitions, and how often the non-``__init__`` modules refer
    to each name."""
    references: "Counter[str]" = Counter()
    for path in SRC.rglob("*.py"):
        if path.name != "__init__.py":
            references.update(map(_reference, ast.walk(ast.parse(path.read_text()))))
    return _definitions(), references


def test_every_definition_has_a_caller_in_src():
    definitions, references = _census()
    uncalled = sorted(
        f"{name} ({where})"
        for name, where in definitions
        if not references[name] and name not in ALLOWED
    )
    assert uncalled == []


def test_every_allowed_name_is_still_defined_and_uncalled():
    """An allow-list entry whose name gained a caller, or went, is stale."""
    definitions, references = _census()
    defined = {name for name, _ in definitions}
    stale = [name for name in ALLOWED if name not in defined or references[name]]
    assert stale == []


def test_run_build_is_referenced_only_by_execute():
    """Every run build — flush, merge, restart, rewind — is a
    ``BuildSpec`` that ``storage.execute`` turns into ``Run.build``: no
    other function in ``src/repro`` names ``Run.build``."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute) and node.attr == "build"
                and isinstance(node.value, ast.Name) and node.value.id == "Run"
            ):
                continue
            enclosing = max(  # the innermost function around the reference
                (f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                key=lambda f: f.lineno, default=None,
            )
            sites.append(f"{path.relative_to(SRC)}:{getattr(enclosing, 'name', '<module>')}")
    assert sites == ["core/storage.py:execute"]
