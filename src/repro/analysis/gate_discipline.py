"""gate-discipline: CommitGate usage invariants, checked lexically.

The engine's concurrency contract (DESIGN.md, ``repro.common.gate``) is:

* structural engine state is mutated only under ``gate.exclusive()``;
* the gate is **not reentrant** — public entry points acquire exactly
  once, underscore helpers assume it is already held (that is the whole
  point of the ``root_digest`` / ``_root_digest`` split);
* the gate is a *thread* primitive — acquiring it on the event loop
  blocks every connection, so ``async def`` bodies must hop to the
  executor first.

PR 2's 1800x reader-starvation bug (provenance ran exclusive instead of
shared) is the class of mistake this rule exists to make mechanical.

Four sub-checks, per class that constructs a ``CommitGate`` in its
``__init__``:

1. **unguarded mutator** — an assignment to a tracked structural
   attribute inside a *public* method must sit lexically inside a
   ``with self.gate.exclusive():`` block (dunder methods are exempt:
   construction and teardown are single-threaded by contract); the
   published ``_view`` is one of them;
2. **nested acquisition** — a ``with self.gate...`` inside another, or a
   call to a public gate-acquiring method of the same class while a gate
   block is open, self-deadlocks on the non-reentrant gate;
3. **gate in async def** — any gate acquisition lexically inside an
   ``async def`` (anywhere in the tree) without an executor hop;
4. **structure read around the view** — readers hold the published
   ``StoreView``, not the gate, so a *public* method may load ``levels``
   / ``mem_writing`` / ``mem_merging`` only inside ``with
   self.gate.exclusive():`` (the mutator); everyone else reads ``_view``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.base import Checker, Finding, SourceFile, SourceTree, dotted_name

RULE = "gate-discipline"

#: Structural attributes a reader could observe half-updated; all
#: writes outside ``__init__``/teardown must hold the gate exclusively.
TRACKED_ATTRS = {
    "current_blk",
    "mem_writing",
    "mem_merging",
    "mem_pending",
    "levels",
    "_view",
}

#: What a published view names (sub-check 4).
VIEW_ATTRS = {"levels", "mem_writing", "mem_merging"}

GATE_ACQUIRE_METHODS = {
    "shared",
    "exclusive",
    "acquire_shared",
    "acquire_exclusive",
}


def _gate_call_on_self(node: ast.AST) -> Optional[str]:
    """Return the method name for ``self.gate.<m>(...)`` calls, else None."""
    if not isinstance(node, ast.Call):
        return None
    name = dotted_name(node.func)
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) >= 3 and parts[-2] == "gate" and parts[-1] in GATE_ACQUIRE_METHODS:
        return parts[-1]
    return None


def _is_gate_with(item: ast.withitem) -> bool:
    return _gate_call_on_self(item.context_expr) is not None


class _GatedClass:
    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.methods: Dict[str, ast.AST] = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        # Public methods that acquire the gate anywhere in their body:
        # calling one of these while already holding the gate deadlocks.
        self.gate_acquirers: Set[str] = set()
        for name, fn in self.methods.items():
            for sub in ast.walk(fn):
                if isinstance(sub, ast.Call) and _gate_call_on_self(sub):
                    self.gate_acquirers.add(name)
                    break


def _find_gated_classes(src: SourceFile) -> List[_GatedClass]:
    out = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        init = next(
            (
                s
                for s in node.body
                if isinstance(s, ast.FunctionDef) and s.name == "__init__"
            ),
            None,
        )
        if init is None:
            continue
        for sub in ast.walk(init):
            if (
                isinstance(sub, ast.Assign)
                and isinstance(sub.value, ast.Call)
                and dotted_name(sub.value.func) in ("CommitGate", "gate.CommitGate")
            ):
                targets = [dotted_name(t) for t in sub.targets]
                if "self.gate" in targets:
                    out.append(_GatedClass(node))
                    break
    return out


def _tracked_assign_lines(node: ast.AST) -> List[Tuple[int, str]]:
    """(line, attr) for every ``self.<tracked> = ...`` in ``node`` itself."""
    out = []
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for target in targets:
        name = dotted_name(target)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "self" and parts[1] in TRACKED_ATTRS:
            out.append((node.lineno, parts[1]))
    return out


class GateDisciplineChecker(Checker):
    rule = RULE

    def run(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for src in tree.files:
            for cls in _find_gated_classes(src):
                self._check_class(src, cls, findings)
            self._check_async_gate(src, findings)
        return findings

    # -- sub-checks 1 + 2 --------------------------------------------------

    def _check_class(
        self, src: SourceFile, cls: _GatedClass, findings: List[Finding]
    ) -> None:
        for name, fn in cls.methods.items():
            if name.startswith("__") and name.endswith("__"):
                continue  # construction/teardown are single-threaded
            public = not name.startswith("_")
            self._walk_method(src, cls, name, public, fn, findings)

    def _walk_method(
        self,
        src: SourceFile,
        cls: _GatedClass,
        method: str,
        public: bool,
        fn: ast.AST,
        findings: List[Finding],
    ) -> None:
        def visit(node: ast.AST, gate_depth: int, held_exclusive: bool = False) -> None:
            for child in ast.iter_child_nodes(node):
                # Nested defs run later (usually on the executor or a
                # merge thread); they are analyzed on their own terms.
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                depth, exclusive = gate_depth, held_exclusive
                if isinstance(child, ast.With) and any(
                    _is_gate_with(i) for i in child.items
                ):
                    if gate_depth > 0:
                        findings.append(
                            Finding(
                                RULE,
                                src.path,
                                child.lineno,
                                f"{cls.node.name}.{method}: nested acquisition of "
                                "self.gate — the CommitGate is not reentrant",
                            )
                        )
                    depth = gate_depth + 1
                    exclusive = any(
                        _gate_call_on_self(i.context_expr) == "exclusive"
                        for i in child.items
                    )
                if (
                    public
                    and not exclusive
                    and isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Load)
                    and child.attr in VIEW_ATTRS
                    and dotted_name(child) == f"self.{child.attr}"
                ):
                    findings.append(
                        Finding(
                            RULE,
                            src.path,
                            child.lineno,
                            f"{cls.node.name}.{method}: reads self.{child.attr} outside "
                            "`with self.gate.exclusive()` — go through self._view",
                        )
                    )
                if public and depth == 0:
                    for line, attr in _tracked_assign_lines(child):
                        findings.append(
                            Finding(
                                RULE,
                                src.path,
                                line,
                                f"{cls.node.name}.{method}: assignment to "
                                f"self.{attr} outside `with self.gate.exclusive()` "
                                "in a public method",
                            )
                        )
                if gate_depth > 0 and isinstance(child, ast.Call):
                    callee = dotted_name(child.func)
                    if callee is not None:
                        parts = callee.split(".")
                        if (
                            len(parts) == 2
                            and parts[0] == "self"
                            and not parts[1].startswith("_")
                            and parts[1] in cls.gate_acquirers
                        ):
                            findings.append(
                                Finding(
                                    RULE,
                                    src.path,
                                    child.lineno,
                                    f"{cls.node.name}.{method}: calls self."
                                    f"{parts[1]}() while holding self.gate — "
                                    f"{parts[1]} re-acquires the non-reentrant "
                                    "gate (use the underscore helper)",
                                )
                            )
                visit(child, depth, exclusive)

        visit(fn, 0)

    # -- sub-check 3 -------------------------------------------------------

    def _check_async_gate(self, src: SourceFile, findings: List[Finding]) -> None:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            body = self._async_body(node)
            # A matched `with` already covers its own context call.
            with_calls = {
                id(i.context_expr)
                for sub in body
                if isinstance(sub, ast.With)
                for i in sub.items
                if _is_gate_with(i)
            }
            for sub in body:
                hit: Optional[int] = None
                if isinstance(sub, ast.With) and any(
                    _is_gate_with(i) for i in sub.items
                ):
                    hit = sub.lineno
                elif isinstance(sub, ast.Call) and id(sub) not in with_calls:
                    name = dotted_name(sub.func)
                    if name is not None:
                        parts = name.split(".")
                        if (
                            len(parts) >= 2
                            and parts[-2] == "gate"
                            and parts[-1] in GATE_ACQUIRE_METHODS
                        ):
                            hit = sub.lineno
                if hit is not None:
                    findings.append(
                        Finding(
                            RULE,
                            src.path,
                            hit,
                            f"async def {node.name}: acquires a CommitGate on "
                            "the event loop — hop to the executor "
                            "(run_in_executor / to_thread) instead",
                        )
                    )

    def _async_body(self, fn: ast.AsyncFunctionDef) -> List[ast.AST]:
        """Nodes lexically in ``fn``'s own body: nested sync defs run on
        the executor, nested async defs are walked separately — skip both."""
        out: List[ast.AST] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                out.append(child)
                visit(child)

        visit(fn)
        return out
