"""async-blocking-call: nothing on the event loop may wait for a commit.

The contract of an ``async def`` body: **no lock a commit can hold, no
fsync except the WAL syncer's budgeted one, and otherwise only bounded
page-cache ``pread`` / ``write``**.  The loop already does one
``write(2)`` per PUT (the WAL append); a point read adds a few
``pread(2)`` of write-once run pages through the engine's *non-blocking*
read, ``engine.get(addr, wait=False)`` / ``engine.get_at(addr, blk,
wait=False)`` — the one engine call sanctioned here.  The one fsync is
``_WalSyncer``'s group sync, on the loop only while it measures cheaper
than the hand-off it replaces: its call site carries the suppression
and that reason.  Everything else that blocks runs on the
executor (``ColeServer._run``).  One stray ``fsync`` or gate acquisition
inside an ``async def`` stalls every connection on the server — and
nothing crashes, it just gets slow, which is why this must be a lint
rule and not a code review hope.

Scope: ``async def`` bodies in ``server/`` and ``replication/``.  Nested *sync* defs and lambdas inside an async body
are skipped — they are the executor thunks themselves.  Flagged calls:

* known blocking module calls (``os.pread``/``pwrite``/``fsync``/...,
  ``time.sleep``, ``open``, blocking ``socket`` constructors, ``durable.*``);
* any CommitGate method on an attribute named ``gate``;
* constructors that do recovery IO (``Cole``, ``WriteAheadLog``,
  ``PagedFile``);
* engine methods called on a receiver named ``engine`` (the blocking
  ``engine.get(addr)`` / ``get_many`` / ``scan`` included: they wait for
  the mem lock) and WAL methods on a receiver named ``wal``.

The sanctioned escape is an executor hop: passing the bound method to
``run_in_executor``/``to_thread`` (or ``self._run``) is not a call and
is never flagged.

An fsync must not hide behind a plain ``def`` either: ``os.fsync`` /
``fdatasync`` / ``durable.fsync`` / ``wal.sync`` calls are also flagged
in every plain ``def`` of the file that the loop reaches — protocol
callbacks, functions handed to ``call_soon`` / ``add_done_callback`` ...,
and whatever those or an ``async def`` call by name (``self.f()`` / ``f()``).
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.base import Checker, Finding, SourceFile, SourceTree, dotted_name

RULE = "async-blocking-call"

SCOPES = ("server/", "replication/")

BLOCKING_CALLS = {
    "open",
    "time.sleep",
    "os.pread",
    "os.pwrite",
    "os.read",
    "os.write",
    "os.fsync",
    "os.fdatasync",
    "os.open",
    "os.sendfile",
    "os.makedirs",
    "os.replace",
    "socket.socket",
    "socket.create_connection",
    "durable.replacing", "durable.fsync", "durable.link_or_copy",
}

BLOCKING_CONSTRUCTORS = {"Cole", "WriteAheadLog", "PagedFile"}

GATE_METHODS = {"exclusive", "acquire_exclusive", "release_exclusive"}

#: Public engine entry points that take the CommitGate or the mem lock
#: (or join merge threads, for ``close``/``wait_for_merges``).
ENGINE_METHODS = {
    "get",
    "get_at",
    "get_many",
    "put",
    "put_many",
    "scan",
    "prov_query",
    "prov_query_anchored",
    "begin_block",
    "commit_block",
    "rewind_to",
    "root_digest",
    "storage_bytes",
    "root_hash_list",
    "close",
    "wait_for_merges",
}

#: WAL methods that hit the filesystem (append = write syscall,
#: sync = fsync, close = flush + fsync).
WAL_METHODS = {"append_put", "append_puts", "append_commit", "sync", "close"}

#: Plain ``def`` methods asyncio itself calls on the loop.
PROTOCOL_CALLBACKS = {
    "connection_made", "connection_lost", "data_received", "eof_received",
    "pause_writing", "resume_writing",
}

#: Calls whose function arguments run on the loop later.
LOOP_SCHEDULERS = {
    "call_soon", "call_soon_threadsafe", "call_later", "call_at", "add_done_callback",
}


def _fsync(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func) or ""
    if name in ("os.fsync", "os.fdatasync", "durable.fsync") or name.endswith("wal.sync"):
        return f"{name}() is an fsync"
    return None


def _classify(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    if name in BLOCKING_CALLS:
        return f"blocking call {name}()"
    if name in BLOCKING_CONSTRUCTORS:
        return f"{name}() constructor does recovery/file IO"
    parts = name.split(".")
    if len(parts) >= 2:
        receiver, method = parts[-2], parts[-1]
        if receiver == "gate" and method in GATE_METHODS:
            return f"CommitGate.{method}() blocks the loop"
        if receiver == "engine" and method in ENGINE_METHODS:
            if method in ("get", "get_at") and any(
                keyword.arg == "wait"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in call.keywords
            ):
                return None  # the non-blocking read: answers or WOULD_BLOCK
            return f"engine.{method}() can wait for a commit"
        if receiver == "wal" and method in WAL_METHODS:
            return f"wal.{method}() does file IO"
    return None


class AsyncBlockingChecker(Checker):
    rule = RULE

    def run(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for src in tree.under(*SCOPES):
            self._check_file(src, findings)
        return findings

    def _check_file(self, src: SourceFile, findings: List[Finding]) -> None:
        plain = {}  # name -> plain defs of that name (methods and functions)
        reached: List[ast.AST] = []  # loop-side bodies still to walk
        scheduled = set(PROTOCOL_CALLBACKS)  # names of loop callbacks
        for node in ast.walk(src.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                reached.append(node)
            elif isinstance(node, ast.FunctionDef):
                plain.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in LOOP_SCHEDULERS:
                    reached.extend(a for a in node.args if isinstance(a, ast.Lambda))
                    scheduled.update(
                        (dotted_name(a) or "").split(".")[-1] for a in node.args
                    )
        reached.extend(fn for name in scheduled for fn in plain.pop(name, ()))
        while reached:
            node = reached.pop()
            if isinstance(node, ast.AsyncFunctionDef):
                kind, classify = "async def", _classify
            else:
                kind, classify = "loop callback", _fsync
            for call in self._calls(node):
                reason = classify(call)
                if reason is not None:
                    findings.append(
                        Finding(
                            RULE,
                            src.path,
                            call.lineno,
                            f"{kind} {getattr(node, 'name', 'lambda')}: {reason}; "
                            "hop to the executor (run_in_executor / to_thread)",
                        )
                    )
                callee = (dotted_name(call.func) or "").split(".")
                if len(callee) == 1 or (len(callee) == 2 and callee[0] == "self"):
                    reached.extend(plain.pop(callee[-1], ()))

    @staticmethod
    def _calls(fn: ast.AST) -> List[ast.Call]:
        """Calls lexically in ``fn``; not those of nested defs (executor thunks)."""
        calls: List[ast.Call] = []

        def visit(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(child, ast.Call):
                    calls.append(child)
                visit(child)

        visit(fn)
        return calls
