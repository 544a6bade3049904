"""error-taxonomy: errors are typed, and never silently swallowed.

Two failure modes this rule encodes:

* **swallowed errors** — a bare ``except:`` (anywhere in the tree) or an
  ``except Exception:`` / ``except BaseException:`` whose body is only
  ``pass``.  The WAL/durability layers turn swallowed exceptions into
  acknowledged-but-lost writes; a best-effort handler must either narrow
  the exception tuple or carry a suppression comment justifying why
  dropping the error is safe at that site.
* **untyped raises** — in ``core/``, ``wal/`` and ``server/``, raised
  exception classes must derive from the :mod:`repro.common.errors`
  hierarchy so callers can catch ``ReproError`` at the process boundary
  and everything else is a genuine bug.  Argument-validation builtins
  (``ValueError``/``TypeError``/``KeyError``) and control-flow builtins
  (``NotImplementedError``/``StopIteration``/``TimeoutError``) are
  allowed; ``raise Exception``/``RuntimeError`` and ad-hoc local classes
  are findings.

The ReproError hierarchy is computed from the tree itself (a fixpoint
over every ``class X(Y)`` in the file set), so subclasses defined
outside ``common/errors.py`` — e.g. ``NotPrimaryError(StorageError)`` in
the protocol module — are recognized without maintaining a list here.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.base import Checker, Finding, SourceFile, SourceTree, dotted_name

RULE = "error-taxonomy"

RAISE_SCOPES = ("core/", "wal/", "server/")

#: Builtins sanctioned outside the ReproError hierarchy: argument
#: validation and python control-flow conventions.
ALLOWED_BUILTINS = {
    "ValueError",
    "TypeError",
    "KeyError",
    "NotImplementedError",
    "StopIteration",
    "StopAsyncIteration",
    "TimeoutError",
    "AssertionError",
}

ROOT_ERROR = "ReproError"


def _broad_names(handler: ast.ExceptHandler) -> bool:
    """True if the handler catches Exception or BaseException."""
    node = handler.type
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    for item in nodes:
        name = dotted_name(item) if item is not None else None
        if name in ("Exception", "BaseException"):
            return True
    return False


def _repro_error_classes(tree: SourceTree) -> Set[str]:
    """Class names deriving (transitively) from ReproError, tree-wide."""
    bases: Dict[str, Set[str]] = {}
    for src in tree.files:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                names = set()
                for base in node.bases:
                    name = dotted_name(base)
                    if name is not None:
                        names.add(name.split(".")[-1])
                bases.setdefault(node.name, set()).update(names)
    derived = {ROOT_ERROR}
    changed = True
    while changed:
        changed = False
        for cls, parents in bases.items():
            if cls not in derived and parents & derived:
                derived.add(cls)
                changed = True
    return derived


class ErrorTaxonomyChecker(Checker):
    rule = RULE

    def run(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        derived = _repro_error_classes(tree)
        for src in tree.files:
            self._check_handlers(src, findings)
        for src in tree.under(*RAISE_SCOPES):
            self._check_raises(src, derived, findings)
        return findings

    def _check_handlers(self, src: SourceFile, findings: List[Finding]) -> None:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    Finding(
                        RULE,
                        src.path,
                        node.lineno,
                        "bare `except:` — name the exceptions (it also "
                        "catches KeyboardInterrupt/SystemExit)",
                    )
                )
                continue
            body_is_pass = all(isinstance(stmt, ast.Pass) for stmt in node.body)
            if body_is_pass and _broad_names(node):
                findings.append(
                    Finding(
                        RULE,
                        src.path,
                        node.lineno,
                        "`except Exception: pass` swallows every error — "
                        "narrow the tuple or justify with a suppression",
                    )
                )

    def _check_raises(
        self, src: SourceFile, derived: Set[str], findings: List[Finding]
    ) -> None:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            cls = self._raised_class(node.exc)
            if cls is None:
                continue  # re-raise of a stored/caught exception object
            if cls in derived or cls in ALLOWED_BUILTINS:
                continue
            findings.append(
                Finding(
                    RULE,
                    src.path,
                    node.lineno,
                    f"raise {cls}: not part of the repro.common.errors "
                    "hierarchy (derive it from ReproError)",
                )
            )

    def _raised_class(self, exc: ast.expr) -> Optional[str]:
        """Class name for ``raise X(...)`` / ``raise X``, else None."""
        node = exc.func if isinstance(exc, ast.Call) else exc
        name = dotted_name(node)
        if name is None:
            return None
        last = name.split(".")[-1]
        # `raise exc` / `raise self._startup_error` re-raises a value;
        # only PascalCase names are treated as classes.
        if name.startswith("self.") or not last[:1].isupper():
            return None
        return last
