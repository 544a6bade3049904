"""A reader/writer gate for concurrent queries against one engine.

The serving layer (``repro.server``) and the concurrent-reader tests run
scans / provenance / root queries from many threads while blocks commit
and background merges cascade.  Page-level IO is already atomic, but the
*structural* state of an engine is not: commit checkpoints swap L0
groups, switch level group roles, attach merge outputs, and unlink
merged-away run files, and puts mutate the L0 tree a cursor walks.
(Point reads — ``get`` / ``get_at`` / ``get_many`` — take no gate: they
hold the engine's published ``StoreView``; see ``repro.core.storage``.)

:class:`CommitGate` closes that window with the classic shared/exclusive
discipline:

* ranged queries hold the gate **shared** — any number run concurrently;
* structural mutation (puts into L0, commit checkpoints, rewind) holds
  it **exclusive**.

Writers are preferred: a waiting writer blocks new readers, so a steady
query stream cannot starve the commit path.  The gate is not reentrant —
internal engine helpers stay ungated and only the public entry points
acquire it (exactly once per call).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.common.debuglock import debug_locks_enabled, track_acquire, track_release


class CommitGate:
    """Shared/exclusive gate between queries and commit checkpoints.

    ``name`` labels the gate's lock *class* in the ``REPRO_DEBUG_LOCKS``
    order graph (see :mod:`repro.common.debuglock`); shared and
    exclusive holds both count as "holding" for ordering purposes.
    Tracking is resolved once at construction — unset env var means a
    ``None`` check per acquisition and nothing else.
    """

    def __init__(self, name: str = "commit-gate") -> None:
        self._cond = threading.Condition(threading.Lock())
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self._debug_name: Optional[str] = name if debug_locks_enabled() else None

    # -- shared (queries) -----------------------------------------------------

    def acquire_shared(self) -> None:
        """Enter as a reader; blocks while a writer is active or waiting."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._active_readers += 1
        if self._debug_name is not None:
            track_acquire(self._debug_name)

    def release_shared(self) -> None:
        """Leave the reader side; wakes a waiting writer when last out."""
        with self._cond:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()
        if self._debug_name is not None:
            track_release(self._debug_name)

    @contextmanager
    def shared(self) -> Iterator[None]:
        """``with gate.shared():`` — hold the gate as a reader."""
        self.acquire_shared()
        try:
            yield
        finally:
            self.release_shared()

    # -- exclusive (structural mutation) --------------------------------------

    def acquire_exclusive(self) -> None:
        """Enter as the sole writer; blocks until all readers drain."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        if self._debug_name is not None:
            track_acquire(self._debug_name)

    def release_exclusive(self) -> None:
        """Leave the writer side; wakes every waiter."""
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()
        if self._debug_name is not None:
            track_release(self._debug_name)

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """``with gate.exclusive():`` — hold the gate as the writer."""
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()
