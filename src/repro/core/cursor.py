"""Key-ordered scans: the unified read-path substrate of the engine.

Every sorted source of compound key-value pairs — the in-memory MB-tree
groups (L0) and the immutable on-disk runs — answers ``iter_from(key)``
with a plain iterator over its entries with key >= ``key`` in ascending
compound-key order.  A scan merges those iterators with the engine's one
k-way merge, :func:`repro.core.merge.merge_newest_first` (the run
builds' merge too), wrapped in :class:`MergingCursor`, which resolves
would-be duplicate keys newest-source-wins.

On top of the raw merged stream, :func:`scan_sources` applies MVCC
newest-wins version resolution as it reads: for every address it keeps
the single version live at ``at_blk`` (``MAX_BLK`` = the latest) and
suppresses all shadowed entries — older versions of the address and
versions written after ``at_blk``.  The engine has no deletes (state
updates only, as in the paper), so shadow suppression is the entire
tombstone story.

The classic LSM read-path architecture (RocksDB-style merging iterators
over immutable sorted runs): point lookups, provenance scans, and the
range-scan path (``Cole.scan``) all traverse the *same* source
enumeration (:class:`ReadSource`, held by the engine's ``StoreView``) in
the same freshness order, so Algorithm 6's search order is defined in
exactly one place.  Source iterators are snapshot-scoped: they must be
created, driven, and dropped under one
:class:`~repro.common.gate.CommitGate` shared hold — commit checkpoints
(exclusive) are what mutate the structures an iterator walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.bloomfilter import HashedItem
from repro.common.errors import StorageError
from repro.core.compound import MAX_BLK, compound_key
from repro.core.merge import merge_newest_first

Entry = Tuple[int, bytes]  # (compound key as big int, value bytes)
ScanTriple = Tuple[bytes, int, bytes]  # (addr, blk, value)


class MergingCursor:
    """One scan's merged stream over sorted source iterators.

    ``streams`` are ordered **newest first** (Algorithm 6's freshness
    order) and merged by :func:`~repro.core.merge.merge_newest_first`;
    ``next()`` returns the next entry, or ``None`` once exhausted, and
    iteration goes through it — so a scan's merge is one named step per
    entry, which ``benchmarks/perf/spans.py`` times as ``cursor.merge``.
    """

    def __init__(self, streams: Sequence[Iterator[Entry]]) -> None:
        self._merged = merge_newest_first(streams)

    def next(self) -> Optional[Entry]:
        return next(self._merged, None)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.next, None)


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
    (:meth:`probe`), provenance scans, and range scans
    (:meth:`iter_from`) all traverse that tuple in the same order.
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

    def probe(self, key: int, hashed: HashedItem) -> Optional[bytes]:
        """Algorithm 6's step on this source: the value of the newest
        version of ``key``'s address at or below ``key``, or ``None`` if
        this source holds none.

        A run is searched only if its filter admits the address, probed
        with ``hashed`` — its ``hash_item`` pair, hashed once by a caller
        that walks several sources; L0 has no filter (the caller holds
        the mem lock around its probe).  The floor's address is compared
        as the integer ``key >> 64``.
        """
        source = self.source
        if self.kind == "mem":
            found = source.floor_search(key)
        elif hashed in source.bloom:
            found = source.floor_search(key)
            if found is not None:
                found = found[0]  # a run answers (entry, position)
        else:
            return None
        if found is None or found[0] >> 64 != key >> 64:
            return None
        return found[1]

    def overlaps(self, key_low: int, key_high: int) -> bool:
        """Range pre-check: can this source hold a key in the range?

        Runs answer from their (memoized) first/last key — the standard
        LSM pruning that spares a scan the index descent and page reads
        of runs wholly outside the range.  Mem groups are cheap to start
        and always checked.
        """
        if self.kind != "run":
            return True
        first, last = self.source.key_range()
        return first <= key_high and last >= key_low

    def iter_from(self, key: int) -> Iterator[Entry]:
        """Entries with compound key >= ``key``, ascending."""
        return self.source.iter_from(key)

    def digest(self):
        """This source's entry in ``root_hash_list``."""
        return self.source.root() if self.kind == "mem" else self.source.commitment()


# =============================================================================
# the scan kernel: merge + MVCC version resolution
# =============================================================================

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

    Versions resolve inline on the merged stream: an address's versions
    arrive in ascending block order, so its live version at ``at_blk``
    is the *last* one with ``blk <= at_blk``.  Versions written after
    ``at_blk`` and shadowed older versions are suppressed, and an
    address whose every version postdates ``at_blk`` did not exist then.
    Addresses are compared as the integer ``key >> 64``; address bytes
    are built only for the triples returned.

    Must run under the engine's gate held shared for its whole
    duration (the caller's job): the source iterators walk live
    structures.
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
    key_low = compound_key(addr_low, 0)
    key_high = compound_key(addr_high, MAX_BLK)
    merged = MergingCursor(
        [
            source.iter_from(key_low)
            for source in sources
            if source.overlaps(key_low, key_high)
        ]
    )
    high = key_high >> 64
    live: List[Entry] = []  # per address, its live version's (key, value)
    current = -1  # the address (``key >> 64``) being resolved
    candidate: Optional[Entry] = None
    for entry in merged:
        key = entry[0]
        addr = key >> 64
        if addr != current:
            if addr > high:
                break
            if candidate is not None:
                live.append(candidate)
                candidate = None
                if len(live) == limit:
                    break
            current = addr
        if key & MAX_BLK <= resolved_at:
            candidate = entry  # ascending: later wins
    if candidate is not None:
        live.append(candidate)
    return [
        ((key >> 64).to_bytes(addr_size, "big"), key & MAX_BLK, value)
        for key, value in live
    ]


def addr_successor(addr: bytes) -> Optional[bytes]:
    """Smallest address greater than ``addr`` at the same width, or
    ``None`` at the top of the address space (continuation keys)."""
    as_int = int.from_bytes(addr, "big") + 1
    if as_int >= 1 << (8 * len(addr)):
        return None
    return as_int.to_bytes(len(addr), "big")
