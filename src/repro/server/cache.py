"""Exact read-path caches: hot-key answers and known-absent keys, kept
right by the commits themselves.

Cached answers must be *exact* — a stale value served after a group
commit would break the byte-identical guarantee the serving layer makes
against a direct in-process engine run.  A commit changes the committed
value of the addresses it wrote and of nothing else, so the commit hook
hands the cache exactly those items (``advance(version, written)``):

* an entry present for a written key is **refreshed in place** to the
  committed value — update-if-present, never insert: uniformly spread
  writes must not evict the zipf-hot set, and a refresh does not touch
  an entry's LRU position either;
* a negative entry for a written address is dropped;
* every other entry stays a hit, for as long as the LRU keeps it.

Exactness argument: until the hook runs, a written address is answered
by the batcher overlay, which is consulted *before* these caches, so a
not-yet-refreshed entry is never served; the hook runs on the event loop
in the same step that tears the overlay down.  A read answered on the
loop cannot interleave with a hook, so its fill is exact.  A pooled read
can: it carries the commit version it started under, ``advance`` raises
a **floor** to the new version, and a fill stamped below it is dropped.

:class:`NegativeLookupCache` is the same scheme specialized to
*absence*: an address proven missing by a full source walk is remembered
until a commit writes it, so repeated misses (zipfian reads over a
sparse keyspace) short-circuit before any bloom probe or index descent.
It lives beside the read cache rather than inside it so a miss-heavy
workload cannot evict the hot positive working set — the two caches
compete for nothing but share one implementation (:class:`_ExactLRU`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Iterable, Optional, Tuple

_MISS = object()


class _ExactLRU:
    """The core both caches share: an LRU of ``key -> value`` under one
    lock, with a fill floor and per-commit reconciliation.

    Thread-safe: the server fills it from executor threads while the
    event loop reads counters.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Optional[bytes]]" = OrderedDict()
        self._lock = threading.Lock()
        #: Fills stamped below it raced a commit and are dropped
        #: (raised by the server on every commit).
        self._floor = 0
        self.hits = 0
        self.misses = 0

    def _lookup(self, key: Hashable):
        """The value cached for ``key``, or ``_MISS``."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def _fill(self, key: Hashable, version: int, value: Optional[bytes]) -> None:
        """Store an answer read while ``version`` was current; a fill
        that raced a commit (stamped below the floor) is dropped."""
        with self._lock:
            if version < self._floor:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def advance(
        self, version: int, written: Iterable[Tuple[Hashable, Optional[bytes]]] = ()
    ) -> None:
        """A commit landed: raise the fill floor to ``version`` and
        reconcile the entries present for the ``(key, value)`` it wrote."""
        with self._lock:
            if version > self._floor:
                self._floor = version
            for key, value in written:
                if key in self._entries:
                    self._reconcile(key, value)

    def _reconcile(self, key: Hashable, value: Optional[bytes]) -> None:
        raise NotImplementedError

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


class VersionedReadCache(_ExactLRU):
    """An LRU cache of ``key -> value`` that commits refresh in place.

    ``value`` may be ``None`` — negative answers ("no such address") are
    as cacheable as positive ones.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        super().__init__(capacity)
        self.refreshed = 0

    def get(self, key: Hashable) -> Tuple[bool, Optional[bytes]]:
        """Return ``(hit, value)``."""
        value = self._lookup(key)
        return (False, None) if value is _MISS else (True, value)

    def put(self, key: Hashable, version: int, value: Optional[bytes]) -> None:
        """Store an answer read while ``version`` was current (fills
        that raced a commit are dropped — see :meth:`_ExactLRU._fill`)."""
        self._fill(key, version, value)

    def _reconcile(self, key: Hashable, value: Optional[bytes]) -> None:
        self._entries[key] = value  # in place: the LRU order is the readers'
        self.refreshed += 1

    def stats(self) -> dict:
        """The shared snapshot plus ``refreshed``: entries commits updated."""
        return dict(super().stats(), refreshed=self.refreshed)


class NegativeLookupCache(_ExactLRU):
    """An LRU set of addresses recording proven absence.

    ``contains(addr)`` answers "is ``addr`` known absent from the
    committed state?" — sound by the same argument as
    :class:`VersionedReadCache`: the commit that writes an address drops
    its entry, and the batcher overlay (consulted first) covers
    everything newer.
    Capacity 0 disables the cache (every add is immediately evicted) —
    the cold-miss baseline of the negative-lookup benchmark.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ValueError("cache capacity cannot be negative")
        super().__init__(capacity)

    def contains(self, addr: bytes) -> bool:
        """True when ``addr`` is known absent."""
        return self._lookup(addr) is not _MISS

    def add(self, addr: bytes, version: int) -> None:
        """Record that a full walk at ``version`` found nothing (fills
        that raced a commit are dropped, as in the read cache)."""
        self._fill(addr, version, None)

    def _reconcile(self, key: Hashable, value: Optional[bytes]) -> None:
        del self._entries[key]  # the address exists now
