"""Dynamic lock-order race detection for tests (``REPRO_DEBUG_LOCKS=1``).

The static ``repro lint`` checkers (see :mod:`repro.analysis`) catch
lexically visible gate misuse, but lock-order inversions are a *runtime*
property: thread A takes the WAL append lock then a paged file's lock,
thread B the reverse, and the deadlock only fires under the right
interleaving.  This module turns every named lock in the process into an
order probe:

* each acquisition records ``held -> acquired`` edges into one
  process-global directed graph keyed by **lock name** (a lock class,
  e.g. ``"wal-append"`` — every WAL instance shares the name);
* before an edge is added, a reachability check runs in the opposite
  direction; if the new edge closes a cycle, :class:`LockOrderError`
  is raised immediately with the full cycle path — the hammer test that
  merely *risked* a deadlock now fails loudly instead of hanging once
  in a thousand runs.

Enable it by setting ``REPRO_DEBUG_LOCKS=1`` before process start; the
CI integration job runs one tier-1 concurrency hammer this way.  When
the variable is unset, :func:`maybe_debug_lock` hands back a plain
``threading.Lock`` — :class:`~repro.common.gate.CommitGate` is one of
these locks — so the production path pays nothing.

Known granularity limit: edges are keyed by name, so two *instances* of
the same class (two engines' gates) never form an edge — a
cross-instance inversion within one class is invisible here.  The
codebase never holds two same-class locks at once (each engine's gate
guards only that engine), and the gate-discipline static rule covers
the lexical side.
"""

from __future__ import annotations

import os
import threading
from types import TracebackType
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Type, Union

from repro.common.errors import ReproError

if TYPE_CHECKING:
    from _thread import LockType

ENV_VAR = "REPRO_DEBUG_LOCKS"


class LockOrderError(ReproError):
    """Two lock classes were observed in contradictory acquisition order."""


def debug_locks_enabled() -> bool:
    """True when ``REPRO_DEBUG_LOCKS`` is set (and not ``"0"``)."""
    return os.environ.get(ENV_VAR, "") not in ("", "0")


class LockOrderGraph:
    """Process-global directed graph of observed lock-name orderings."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._edges: Dict[str, Set[str]] = {}
        self._held = threading.local()

    def _stack(self) -> List[str]:
        stack: Optional[List[str]] = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def note_acquired(self, name: str) -> None:
        """Record that the current thread acquired ``name``.

        Raises :class:`LockOrderError` if any ``held -> name`` edge
        closes a cycle with previously observed orderings.
        """
        stack = self._stack()
        with self._mutex:
            for held in stack:
                # Same-name pairs carry no direction at name granularity
                # (two engines' gates); skip rather than self-cycle.
                if held != name:
                    self._add_edge_locked(held, name)
        stack.append(name)

    def note_released(self, name: str) -> None:
        """Record that the current thread released ``name``."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def _add_edge_locked(self, src: str, dst: str) -> None:
        peers = self._edges.setdefault(src, set())
        if dst in peers:
            return
        path = self._path_locked(dst, src)
        if path is not None:
            # path runs dst .. src, so prefixing src closes the loop.
            cycle = " -> ".join([src] + path)
            raise LockOrderError(
                f"lock-order cycle: acquiring {dst!r} while holding {src!r} "
                f"contradicts the observed order {cycle}"
            )
        peers.add(dst)

    def _path_locked(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS path ``start -> ... -> goal`` over existing edges, or None."""
        seen: Set[str] = set()
        trail: List[str] = [start]

        def visit(node: str) -> bool:
            if node == goal:
                return True
            seen.add(node)
            for nxt in self._edges.get(node, ()):
                if nxt in seen:
                    continue
                trail.append(nxt)
                if visit(nxt):
                    return True
                trail.pop()
            return False

        return trail if visit(start) else None

    def edges(self) -> Dict[str, Set[str]]:
        """Snapshot of the observed ordering edges (for tests)."""
        with self._mutex:
            return {src: set(dst) for src, dst in self._edges.items()}

    def reset(self) -> None:
        """Drop all recorded edges (this thread's held stack too)."""
        with self._mutex:
            self._edges.clear()
        self._stack().clear()


#: The process-global graph every DebugLock (a tracked CommitGate's too) feeds.
GRAPH = LockOrderGraph()


def reset_lock_order() -> None:
    GRAPH.reset()


class DebugLock:
    """A named ``threading.Lock`` wrapper feeding the order graph."""

    def __init__(self, name: str, graph: Optional[LockOrderGraph] = None) -> None:
        self.name = name
        self._graph = GRAPH if graph is None else graph
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            try:
                self._graph.note_acquired(self.name)
            except BaseException:
                self._inner.release()
                raise
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._graph.note_released(self.name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.release()


def maybe_debug_lock(name: str) -> Union[DebugLock, "LockType"]:
    """A plain lock normally; a tracked :class:`DebugLock` under the env var."""
    if debug_locks_enabled():
        return DebugLock(name)
    return threading.Lock()
