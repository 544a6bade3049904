"""Versioned read-path caches: hot-key answers and known-absent keys,
both invalidated by commit version.

Cached answers must be *exact* — a stale value served after a group
commit would break the byte-identical guarantee the serving layer makes
against a direct in-process engine run.  Instead of tracking which
addresses each commit touched, every entry is stamped with the server's
**commit version** (the group-commit counter, i.e. the ``Hstate``
checkpoint epoch) at fill time, and a lookup only hits when the entry's
stamp equals the current version.  A commit bumps the version, which
atomically invalidates the whole cache without touching a single entry.

Exactness argument: between two commits the engine's committed state is
immutable (puts buffered by the write batcher are served from its
overlay, which is consulted *before* this cache), so any entry stamped
with the current version was computed against exactly the state a fresh
engine lookup would see.  Entries filled from a read that raced a commit
are stamped with the pre-commit version and can never be served after
the bump.

Eviction is LRU with a fixed capacity; stale entries are additionally
dropped lazily when a lookup trips over them.

:class:`NegativeLookupCache` is the same epoch scheme specialized to
*absence*: an address proven missing by a full source walk is remembered
until the next commit, so repeated misses (zipfian reads over a sparse
keyspace) short-circuit before any bloom probe or index descent.  It
lives beside the read cache rather than inside it so a miss-heavy
workload cannot evict the hot positive working set — the two caches
compete for nothing but share one implementation (:class:`_EpochLRU`)
and with it the ``advance()`` invalidation rule.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional, Tuple


class _EpochLRU:
    """The core both caches share: an LRU of ``key -> (stamp, value)``
    under one lock, with an epoch floor and lazy stale eviction.

    Thread-safe: the server fills it from executor threads while the
    event loop reads counters.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Tuple[int, Optional[bytes]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        #: Current epoch floor: fills stamped below it are dead on arrival
        #: (advanced by the server on every group commit).
        self._floor = 0
        self.hits = 0
        self.misses = 0

    def _lookup(
        self, key: Hashable, version: int
    ) -> Optional[Tuple[int, Optional[bytes]]]:
        """The entry for ``key`` if it is stamped ``version``, else
        ``None``; an entry from another epoch is evicted on the way."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry[0] == version:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry
                del self._entries[key]  # stale epoch: lazily evict
            self.misses += 1
            return None

    def _fill(self, key: Hashable, version: int, value: Optional[bytes]) -> None:
        """Store an answer computed while ``version`` was current.

        A fill that raced a commit arrives stamped with the pre-commit
        version: it could never hit (lookups compare against the current
        epoch) but it *could* evict a live entry.  Such dead-on-arrival
        fills are dropped against the epoch floor instead.
        """
        with self._lock:
            if version < self._floor:
                return
            self._entries[key] = (version, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def advance(self, version: int) -> None:
        """Raise the epoch floor (called at every group commit)."""
        with self._lock:
            if version > self._floor:
                self._floor = version

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """One consistent snapshot of the counters, under the lock.

        Reading ``hits`` / ``misses`` / ``hit_rate`` field-by-field from
        another thread can tear — the rate would mix a ``hits`` from one
        instant with a ``misses`` from another.  Every derived number
        here comes from a single locked read.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            entries = len(self._entries)
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "lookups": total,
            "hit_rate": hits / total if total else 0.0,
            "entries": entries,
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        """Drop all entries and counters (the epoch floor stays)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


class VersionedReadCache(_EpochLRU):
    """An LRU cache of ``key -> (version, value)`` with epoch invalidation.

    ``value`` may be ``None`` — negative answers ("no such address") are
    as cacheable as positive ones.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        super().__init__(capacity)

    def get(self, key: Hashable, version: int) -> Tuple[bool, Optional[bytes]]:
        """Return ``(hit, value)``; only entries stamped ``version`` hit."""
        entry = self._lookup(key, version)
        return (False, None) if entry is None else (True, entry[1])

    def put(self, key: Hashable, version: int, value: Optional[bytes]) -> None:
        """Store an answer computed while ``version`` was current (fills
        that raced a commit are dropped — see :meth:`_EpochLRU._fill`)."""
        self._fill(key, version, value)


class NegativeLookupCache(_EpochLRU):
    """An LRU set of addresses recording proven absence.

    ``contains(addr, version)`` answers "was ``addr`` proven absent at
    exactly this commit version?" — the only version a hit is sound at,
    by the same exactness argument as :class:`VersionedReadCache`: the
    committed state is immutable between commits, and the batcher
    overlay (consulted first) covers everything newer.
    Capacity 0 disables the cache (every add is immediately evicted) —
    the cold-miss baseline of the negative-lookup benchmark.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ValueError("cache capacity cannot be negative")
        super().__init__(capacity)

    def contains(self, addr: bytes, version: int) -> bool:
        """True when ``addr`` is known absent at commit ``version``."""
        return self._lookup(addr, version) is not None

    def add(self, addr: bytes, version: int) -> None:
        """Record that a full walk at ``version`` found nothing (fills
        that raced a commit are dropped, as in the read cache)."""
        self._fill(addr, version, None)
