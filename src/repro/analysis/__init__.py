"""``repro.analysis`` — the invariant lint suite (``repro lint``).

Three AST checkers encode the concurrency invariants that previously
lived only in DESIGN.md prose (see each module's docstring for the bug
class it targets):

* :mod:`~repro.analysis.gate_discipline` — CommitGate usage;
* :mod:`~repro.analysis.async_blocking` — no sync IO on the event loop;
* :mod:`~repro.analysis.error_taxonomy` — typed, never-swallowed errors.

Op/Status completeness needs no checker: every op is one row of
``repro.server.protocol.OPS`` and ``tests/test_protocol_table.py``
asserts each row is wired end to end.

The dynamic half — the ``REPRO_DEBUG_LOCKS=1`` lock-order detector —
lives in :mod:`repro.common.debuglock` (the locks it wraps sit below
this package) and is re-exported here as part of the analysis surface.
"""

from repro.analysis.base import Checker, Finding, SourceTree, load_tree
from repro.analysis.runner import Report, default_checkers, run_lint
from repro.common.debuglock import (
    DebugLock,
    LockOrderError,
    LockOrderGraph,
    debug_locks_enabled,
    maybe_debug_lock,
    reset_lock_order,
)

__all__ = [
    "Checker",
    "DebugLock",
    "Finding",
    "LockOrderError",
    "LockOrderGraph",
    "Report",
    "SourceTree",
    "debug_locks_enabled",
    "default_checkers",
    "load_tree",
    "maybe_debug_lock",
    "reset_lock_order",
    "run_lint",
]
