"""The writer mutex of one engine.

Readers take no gate: ``get`` / ``scan`` / ``prov_query*`` /
``root_digest`` pin the engine's published ``StoreView`` (see
``repro.core.storage``) and hold only the mem lock around the L0 groups,
the one thing a view names that still takes inserts.  What the gate
serializes is the mutators — puts, block begin / commit, rewind and
close — plus the cold control-plane reads that walk the live level lists
(``storage_bytes``, ``compaction_stats``, ``wait_for_merges``) and a
snapshot's capture.  It is a plain lock and not reentrant: internal engine
helpers stay ungated and only the public entry points acquire it
(exactly once per call).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.common.debuglock import maybe_debug_lock


class CommitGate:
    """Mutex held by an engine's mutators.

    ``name`` labels the lock *class* in the ``REPRO_DEBUG_LOCKS`` order
    graph (see :mod:`repro.common.debuglock`).
    """

    def __init__(self, name: str = "commit-gate") -> None:
        self._lock = maybe_debug_lock(name)

    def acquire_shared(self) -> None:
        """Nothing calls this: readers pin a view.  The name stays because
        the perf ruler (``benchmarks/perf/spans.py``) wraps it."""
        raise NotImplementedError("readers pin a StoreView; the gate is a writer mutex")

    def acquire_exclusive(self) -> None:
        """Take the mutex; blocks while another mutator holds it."""
        self._lock.acquire()

    def release_exclusive(self) -> None:
        self._lock.release()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """``with gate.exclusive():`` — hold the mutex.  Goes through the
        two methods above, which the perf ruler wraps by name."""
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()
