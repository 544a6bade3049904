"""Key-ordered cursors: the unified read-path substrate of the engine.

Every sorted source of compound key-value pairs — the in-memory MB-tree
groups (L0) and the immutable on-disk runs — exposes
the same tiny cursor protocol (:class:`Cursor`): ``seek(key)`` positions
at the first entry with key >= ``key`` and ``next()`` streams entries in
ascending compound-key order.  A heap-based k-way :class:`MergingCursor`
composes any number of them into one globally ordered stream, resolving
would-be duplicate keys newest-source-wins (the same defence-in-depth
rule as :func:`repro.core.merge.merge_entry_streams`).

On top of the raw merged stream, :func:`resolve_versions` applies MVCC
newest-wins version resolution: for every address it emits the single
version live at ``at_blk`` (``MAX_BLK`` = the latest) and suppresses all
shadowed entries — older versions of the address and versions written
after ``at_blk``.  The engine has no deletes (state updates only, as in
the paper), so shadow suppression is the entire tombstone story.

The classic LSM read-path architecture (RocksDB-style merging iterators
over immutable sorted runs): point lookups, provenance scans, and the
range-scan path (``Cole.scan``) all traverse the *same* source
enumeration (:class:`ReadSource`, held by the engine's ``StoreView``) in
the same freshness order, so Algorithm 6's search order is defined in
exactly one place.  Cursors are snapshot-scoped: they must be created,
driven, and dropped under one :class:`~repro.common.gate.CommitGate`
shared hold — commit checkpoints (exclusive) are what mutate the
structures a cursor walks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.bloomfilter import HashedItem
from repro.common.errors import StorageError
from repro.core.compound import CompoundKey, MAX_BLK, addr_of_int, blk_of_int

Entry = Tuple[int, bytes]  # (compound key as big int, value bytes)
ScanTriple = Tuple[bytes, int, bytes]  # (addr, blk, value)


class Cursor:
    """The cursor protocol every sorted source implements.

    ``seek(key)`` positions at the first entry with compound key >=
    ``key``; ``next()`` returns that entry and advances, or ``None``
    once exhausted.  A cursor starts unpositioned — ``seek`` first.
    """

    def seek(self, key: int) -> None:
        raise NotImplementedError

    def next(self) -> Optional[Entry]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Entry]:
        while True:
            entry = self.next()
            if entry is None:
                return
            yield entry


class MemCursor(Cursor):
    """Cursor over one L0 group's MB-tree (leaf-chain iteration)."""

    def __init__(self, group) -> None:
        self._tree = group.tree
        self._iter: Optional[Iterator[Entry]] = None

    def seek(self, key: int) -> None:
        self._iter = self._tree.iter_from(key)

    def next(self) -> Optional[Entry]:
        if self._iter is None:
            return None
        return next(self._iter, None)


class RunCursor(Cursor):
    """Cursor over one immutable run's value file.

    ``seek`` pays one learned-index descent to locate the start
    position; iteration then rides ``ValueFile.scan_from`` — streaming
    page-sequential reads, one page read per ``pairs_per_page`` entries,
    instead of a point lookup per key.
    """

    def __init__(self, run) -> None:
        self._run = run
        self._iter: Optional[Iterator[Tuple[Entry, int]]] = None

    def seek(self, key: int) -> None:
        run = self._run
        floor = run.floor_search(key)
        if floor is None:
            position = 0  # key precedes the whole run
        else:
            entry, position = floor
            if entry[0] < key:
                position += 1
        # Streaming read: tagged sequential so one big scan cannot evict
        # the page cache's protected (hot point-read) segment.
        self._iter = run.value_file.scan_from(position, sequential=True)

    def next(self) -> Optional[Entry]:
        if self._iter is None:
            return None
        found = next(self._iter, None)
        return found[0] if found is not None else None


class ListCursor(Cursor):
    """Cursor over an already-materialized sorted entry list (tests,
    small merges)."""

    def __init__(self, entries: Sequence[Entry]) -> None:
        self._entries = entries
        self._pos = len(entries)

    def seek(self, key: int) -> None:
        lo, hi = 0, len(self._entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._entries[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        self._pos = lo

    def next(self) -> Optional[Entry]:
        if self._pos >= len(self._entries):
            return None
        entry = self._entries[self._pos]
        self._pos += 1
        return entry


class MergingCursor(Cursor):
    """Heap-based k-way merge of cursors into one ordered stream.

    ``cursors`` are ordered **newest first** (Algorithm 6's freshness
    order).  Compound keys are globally unique within one engine, so
    duplicate keys across sources indicate either corruption or a
    caller merging overlapping snapshots; they resolve newest-wins —
    the heap orders ties by source index, so the freshest source's
    entry is emitted and the shadowed ones are skipped.
    """

    def __init__(self, cursors: Sequence[Cursor]) -> None:
        self._cursors = list(cursors)
        self._heap: List[Tuple[int, int, bytes]] = []
        self._last_key: Optional[int] = None

    def seek(self, key: int) -> None:
        self._heap = []
        self._last_key = None
        for index, cursor in enumerate(self._cursors):
            cursor.seek(key)
            entry = cursor.next()
            if entry is not None:
                self._heap.append((entry[0], index, entry[1]))
        heapq.heapify(self._heap)

    def next(self) -> Optional[Entry]:
        heap = self._heap
        while heap:
            key, index, value = heap[0]
            follower = self._cursors[index].next()
            if follower is not None:
                heapq.heapreplace(heap, (follower[0], index, follower[1]))
            else:
                heapq.heappop(heap)
            if key == self._last_key:
                continue  # shadowed duplicate from an older source
            self._last_key = key
            return key, value
        return None


# =============================================================================
# the unified source enumeration (Algorithm 6's traversal order)
# =============================================================================

@dataclass(frozen=True)
class ReadSource:
    """One sorted source of an engine's read path, freshness-ordered.

    Wraps either an L0 :class:`~repro.core.memlevel.MemGroup` or an
    on-disk :class:`~repro.core.run.Run` behind one interface, labeled
    exactly as in ``root_hash_list`` so provenance proofs can address
    it.  A ``StoreView`` holds them in search order; point lookups
    (:meth:`floor_search`), provenance scans, and range-scan cursors
    (:meth:`cursor`) all traverse that tuple in the same order.
    """

    label: str
    kind: str  # "mem" | "run"
    source: object

    @classmethod
    def mem(cls, label: str, group) -> "ReadSource":
        return cls(label=label, kind="mem", source=group)

    @classmethod
    def run(cls, label: str, run) -> "ReadSource":
        return cls(label=label, kind="run", source=run)

    def may_contain(self, addr: Union[bytes, HashedItem]) -> bool:
        """Bloom pre-check (runs only; L0 has no filter).  A caller that
        walks several sources passes ``hash_item(addr)``, hashed once."""
        if self.kind == "run":
            return self.source.may_contain(addr)
        return True

    def overlaps(self, key_low: int, key_high: int) -> bool:
        """Range pre-check: can this source hold a key in the range?

        Runs answer from their (memoized) first/last key — the standard
        LSM pruning that spares a scan the index descent and page reads
        of runs wholly outside the range.  Mem groups are cheap to seek
        and always checked.
        """
        if self.kind != "run":
            return True
        first, last = self.source.key_range()
        return first <= key_high and last >= key_low

    def floor_search(self, key: int) -> Optional[Entry]:
        """Largest entry with compound key <= ``key``, if any."""
        if self.kind == "run":
            found = self.source.floor_search(key)
            return found[0] if found is not None else None
        return self.source.floor_search(key)

    def cursor(self) -> Cursor:
        return self.source.cursor()

    def digest(self):
        """This source's entry in ``root_hash_list``."""
        return self.source.root() if self.kind == "mem" else self.source.commitment()


# =============================================================================
# MVCC version resolution over a merged stream
# =============================================================================

def resolve_versions(
    entries: Iterator[Entry],
    *,
    at_blk: int,
    addr_size: int,
    key_high: int,
) -> Iterator[ScanTriple]:
    """Reduce an ordered compound-key stream to live ``(addr, blk,
    value)`` triples.

    For each address the stream yields its versions in ascending block
    order; the live version at ``at_blk`` is the *last* one with
    ``blk <= at_blk``.  Versions written after ``at_blk`` and shadowed
    older versions are suppressed; an address whose every version
    postdates ``at_blk`` did not exist then and is skipped entirely.
    The stream is consumed only up to ``key_high`` (inclusive).
    """
    current_addr: Optional[bytes] = None
    candidate: Optional[ScanTriple] = None
    for key, value in entries:
        if key > key_high:
            break
        addr = addr_of_int(key, addr_size)
        if addr != current_addr:
            if candidate is not None:
                yield candidate
            current_addr = addr
            candidate = None
        blk = blk_of_int(key)
        if blk <= at_blk:
            candidate = (addr, blk, value)  # ascending: later wins
    if candidate is not None:
        yield candidate


def scan_sources(
    sources: Sequence[ReadSource],
    addr_low: bytes,
    addr_high: bytes,
    *,
    at_blk: Optional[int],
    limit: Optional[int],
    addr_size: int,
) -> List[ScanTriple]:
    """Merge ``sources`` and return up to ``limit`` live triples for
    the addresses in ``[addr_low, addr_high]`` as of ``at_blk`` (``None``
    = latest) — the scan kernel of both engines, and the one place a
    scan request is validated.

    Must run under the engine's gate held shared for its whole
    duration (the caller's job): the cursors walk live structures.
    """
    if len(addr_low) != addr_size or len(addr_high) != addr_size:
        raise StorageError(f"scan bounds must be {addr_size}-byte addresses")
    if addr_low > addr_high:
        raise StorageError("empty address range")
    resolved_at = MAX_BLK if at_blk is None else at_blk
    if not 0 <= resolved_at <= MAX_BLK:
        raise StorageError(f"block height out of range: {at_blk}")
    if limit is not None and limit <= 0:
        return []
    key_low = CompoundKey(addr=addr_low, blk=0).to_int()
    key_high = CompoundKey(addr=addr_high, blk=MAX_BLK).to_int()
    merged = MergingCursor(
        [
            source.cursor()
            for source in sources
            if source.overlaps(key_low, key_high)
        ]
    )
    merged.seek(key_low)
    out: List[ScanTriple] = []
    for triple in resolve_versions(
        iter(merged), at_blk=resolved_at, addr_size=addr_size, key_high=key_high
    ):
        out.append(triple)
        if limit is not None and len(out) >= limit:
            break
    return out


def addr_successor(addr: bytes) -> Optional[bytes]:
    """Smallest address greater than ``addr`` at the same width, or
    ``None`` at the top of the address space (continuation keys)."""
    as_int = int.from_bytes(addr, "big") + 1
    if as_int >= 1 << (8 * len(addr)):
        return None
    return as_int.to_bytes(len(addr), "big")
