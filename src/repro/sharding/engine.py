"""Sharded COLE: hash-partitioned scale-out of the storage engine.

One :class:`ShardedCole` owns a directory of ``num_shards`` fully
independent :class:`~repro.core.storage.Cole` instances — each with its
own workspace subdirectory, manifest, crash recovery, and background
merges — and the address space hash-partitioned across them
(``repro.sharding.router``).  Because every ``<addr, blk>`` compound key
of one address lives in exactly one shard, reads, provenance scans, and
proofs are single-shard operations; only the block lifecycle fans out.

The composite state root extends Algorithm 5's determinism argument: each
shard's ``Hstate`` is deterministic at its commit checkpoints, so the
ordered hash over per-shard roots is too, regardless of merge timing *and*
of commit scheduling across shards.  Commits fan out through a thread
pool so the per-shard merge cascades — the blocking part of a commit —
overlap in wall-clock time.

Durability composes per shard (Section 4.3): each shard records its own
checkpoint, recovery replays the transaction log from the *earliest*
shard checkpoint (:attr:`ShardedCole.checkpoint_blk`), and
:meth:`ShardedCole.put_many` drops writes that a shard already holds
durably.
"""

from __future__ import annotations

import heapq
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.chain.backend import StorageBackend
from repro.common.errors import StorageError
from repro.common.gate import CommitGate
from repro.common.hashing import Digest, hash_concat
from repro.common.params import ShardParams
from repro.core.cursor import ScanTriple, addr_successor
from repro.core.storage import Cole
from repro.diskio.iostats import IOStats
from repro.sharding.proofs import ShardedProvenanceResult
from repro.sharding.router import shard_dirname, shard_of


def scan_page_size(limit: int, num_shards: int) -> int:
    """Adaptive per-shard page for a cross-shard scan of ``limit``
    results: each shard's expected share plus slack, refilled by
    continuation when the merge drains a shard early.

    Module-level because it defines the *deployment request pattern*:
    the fig20 benchmark replays exactly the per-shard requests this
    sizing produces, so the engine and the measurement cannot drift.
    """
    return max(8, -(-limit // num_shards) + 4)


class ShardedCole(StorageBackend):
    """N independent COLE shards behind the one-engine storage contract."""

    def __init__(
        self,
        directory: str,
        params: Optional[ShardParams] = None,
        stats: Optional[IOStats] = None,
    ) -> None:
        """Open (creating or recovering) every shard under ``directory``."""
        self.params = params if params is not None else ShardParams()
        self.stats = stats if stats is not None else IOStats()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.shards: List[Cole] = [
            Cole(self.shard_directory(index), self.params.cole, stats=self.stats)
            for index in range(self.params.num_shards)
        ]
        # One commit worker per shard: a block's shard commits fan out at once.
        self._pool = ThreadPoolExecutor(
            max_workers=self.params.num_shards, thread_name_prefix="cole-shard"
        )
        self.current_blk = max(shard.current_blk for shard in self.shards)
        # Cross-shard atomicity: single-shard reads (get / get_at) ride
        # each shard's own view; ops that must observe every shard at one
        # instant (provenance anchored to the composite root, the
        # shard-root vector) hold this top-level gate shared, and every
        # mutator (puts, composite commits, rewind) holds it exclusive.
        # Ordering is always top gate before shard gate, so the two
        # levels cannot deadlock.
        self.gate = CommitGate("shardedcole-gate")
        # Hot addresses route repeatedly; memoizing addr -> shard index
        # beats recomputing crc32 per put.  Bounded so an unbounded
        # address space cannot grow it without limit.
        self._route_cache: dict = {}
        self._route_cache_limit = 1 << 20

    def shard_directory(self, index: int) -> str:
        """Workspace subdirectory of shard ``index``."""
        return os.path.join(self.directory, shard_dirname(index))

    def _route(self, addr: bytes) -> int:
        cache = self._route_cache
        index = cache.get(addr)
        if index is None:
            index = shard_of(addr, len(self.shards))
            if len(cache) >= self._route_cache_limit:
                cache.clear()
            cache[addr] = index
        return index

    def _shard_for(self, addr: bytes) -> Cole:
        return self.shards[self._route(addr)]

    # =========================================================================
    # block lifecycle
    # =========================================================================

    def begin_block(self, height: int) -> None:
        """Start block ``height`` on every shard.

        Holds the top gate while the per-shard ``begin_block`` calls
        take each shard's own gate — the documented top-before-shard
        order, so this cannot deadlock against readers.
        """
        with self.gate.exclusive():
            if height < self.current_blk:
                raise StorageError(
                    "block heights must be non-decreasing (no forks, §4.3)"
                )
            self.current_blk = height
            for shard in self.shards:
                shard.begin_block(height)

    def commit_block(self) -> Digest:
        """Finalize the block on every shard; returns the composite root.

        Cascades are **coordinated**: when any shard's L0 is at capacity,
        every shard cascades on this block, through the thread pool — so
        the per-shard flush builds and manifest fsyncs always overlap
        instead of landing on whichever later blocks each shard's own
        fill would have picked.  The trigger is a deterministic function
        of the put stream, so the composite ``Hstate`` stays identical
        across nodes.  Blocks where no shard is at capacity commit
        inline: the pool round-trip costs more than a root recompute.
        """
        with self.gate.exclusive():
            cascade = any(shard.needs_cascade() for shard in self.shards)
            if cascade and len(self.shards) > 1:
                roots = list(
                    self._pool.map(
                        lambda shard: shard.commit_block(force_cascade=True), self.shards
                    )
                )
            else:
                roots = [
                    shard.commit_block(force_cascade=cascade) for shard in self.shards
                ]
            return hash_concat(roots)

    # =========================================================================
    # write path
    # =========================================================================

    def put(self, addr: bytes, value: bytes) -> None:
        """Insert a state update on the owning shard (dropped like
        :meth:`put_many`'s when that shard holds the block durably)."""
        with self.gate.exclusive():
            shard = self._shard_for(addr)
            if self.current_blk > shard.checkpoint_blk:
                shard.put(addr, value)

    def put_many(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Batched put: one routing pass, then one batch per touched shard.

        A shard that already holds the current block durably takes none
        of its puts.  Writers resume above :attr:`last_blk`, so this only
        bites in crash recovery: shards checkpoint independently and the
        log replays from the earliest checkpoint (Section 4.3).
        """
        num_shards = len(self.shards)
        with self.gate.exclusive():
            blk = self.current_blk
            if num_shards == 1:
                if blk > self.shards[0].checkpoint_blk:
                    self.shards[0].put_many(items)
                return
            route = self._route
            buckets: List[List[Tuple[bytes, bytes]]] = [[] for _ in range(num_shards)]
            for item in items:
                buckets[route(item[0])].append(item)
            for shard, bucket in zip(self.shards, buckets):
                if bucket and blk > shard.checkpoint_blk:
                    shard.put_many(bucket)

    # =========================================================================
    # read path
    # =========================================================================

    def get(self, addr: bytes, wait: bool = True) -> Optional[bytes]:
        """Latest value of ``addr`` or ``None`` (single-shard lookup;
        ``wait=False`` is the shard's non-blocking read)."""
        return self._shard_for(addr).get(addr, wait)

    def get_at(self, addr: bytes, blk: int, wait: bool = True) -> Optional[bytes]:
        """Value of ``addr`` as of block ``blk``."""
        return self._shard_for(addr).get_at(addr, blk, wait)

    def get_many(self, addrs: List[bytes]) -> List[Optional[bytes]]:
        """Batched get: one routing pass, one batched lookup per shard.

        Like :meth:`get`, rides each touched shard's own view (a batch
        of latest-value reads needs no cross-shard instant); shards that
        own none of the batch are never touched, and multi-shard batches
        fan out on the commit pool so per-shard source walks overlap.
        """
        num_shards = len(self.shards)
        if num_shards == 1:
            return self.shards[0].get_many(list(addrs))
        route = self._route
        buckets: List[List[int]] = [[] for _ in range(num_shards)]
        for index, addr in enumerate(addrs):
            buckets[route(addr)].append(index)
        touched = [
            (shard, positions)
            for shard, positions in zip(self.shards, buckets)
            if positions
        ]
        results: List[Optional[bytes]] = [None] * len(addrs)

        def lookup(job: Tuple[Cole, List[int]]) -> Tuple[List[int], List[Optional[bytes]]]:
            shard, positions = job
            return positions, shard.get_many([addrs[i] for i in positions])

        if len(touched) == 1:
            answers = [lookup(touched[0])]
        else:
            answers = self._pool.map(lookup, touched)
        for positions, values in answers:
            for position, value in zip(positions, values):
                results[position] = value
        return results

    def scan(
        self,
        addr_low: bytes,
        addr_high: bytes,
        *,
        at_blk: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[ScanTriple]:
        """Key-ordered range scan across every shard (globally sorted).

        The address space is hash-partitioned, so each shard holds an
        arbitrary subset of any address range and the per-shard streams
        must be re-merged globally.  Shards return MVCC-resolved
        ``(addr, blk, value)`` triples already sorted and mutually
        disjoint (one address lives in exactly one shard), so the
        second-level merge is a plain k-way merge by address.

        With a ``limit``, each shard is first asked for only its
        expected share (``limit / N`` plus slack) **in parallel** on
        the commit pool, and a shard that exhausts its page while the
        merge still needs entries refills via a continuation scan from
        its last returned address — total work stays ~``limit`` triples
        instead of ``N x limit``.  The whole scan holds the top-level
        gate shared: like anchored provenance, a cross-shard scan must
        describe one instant, which any concurrent commit (exclusive
        here) would break.
        """
        with self.gate.shared():
            if len(self.shards) == 1:
                return self.shards[0].scan(
                    addr_low, addr_high, at_blk=at_blk, limit=limit
                )
            if limit is None:
                parts = list(
                    self._pool.map(
                        lambda shard: shard.scan(addr_low, addr_high, at_blk=at_blk),
                        self.shards,
                    )
                )
                return list(heapq.merge(*parts, key=itemgetter(0)))
            if limit <= 0:
                return []
            page = scan_page_size(limit, len(self.shards))
            first_pages = list(
                self._pool.map(
                    lambda shard: shard.scan(
                        addr_low, addr_high, at_blk=at_blk, limit=page
                    ),
                    self.shards,
                )
            )
            streams = [
                self._shard_scan_pages(shard, batch, addr_high, at_blk, page)
                for shard, batch in zip(self.shards, first_pages)
            ]
            return list(
                itertools.islice(heapq.merge(*streams, key=itemgetter(0)), limit)
            )

    @staticmethod
    def _shard_scan_pages(
        shard: Cole,
        first: List[ScanTriple],
        addr_high: bytes,
        at_blk: Optional[int],
        page: int,
    ) -> Iterator[ScanTriple]:
        """One shard's scan stream: the prefetched page, then
        continuation refills while the cross-shard merge keeps pulling."""
        batch = first
        while True:
            yield from batch
            if len(batch) < page:
                return  # the shard ran out of matching addresses
            next_low = addr_successor(batch[-1][0])
            if next_low is None or next_low > addr_high:
                return
            batch = shard.scan(next_low, addr_high, at_blk=at_blk, limit=page)

    def prov_query(self, addr: bytes, blk_low: int, blk_high: int) -> ShardedProvenanceResult:
        """Historical values of ``addr`` with a composite-root-anchored proof."""
        result, _root = self.prov_query_anchored(addr, blk_low, blk_high)
        return result

    def prov_query_anchored(
        self, addr: bytes, blk_low: int, blk_high: int
    ) -> Tuple[ShardedProvenanceResult, Digest]:
        """:meth:`prov_query` plus the composite ``Hstate`` it verifies
        against.

        Holds the top-level gate shared: the inner proof and the
        shard-root vector it anchors to must describe the same instant,
        which any concurrent *mutation* (exclusive on this gate) would
        break — while concurrent queries remain free to overlap.
        """
        with self.gate.shared():
            index = shard_of(addr, len(self.shards))
            inner = self.shards[index].prov_query(addr, blk_low, blk_high)
            roots = self._shard_roots()
            result = ShardedProvenanceResult(
                shard_index=index, shard_roots=roots, result=inner
            )
            return result, hash_concat(roots)

    # =========================================================================
    # composite root (Hstate)
    # =========================================================================

    def shard_roots(self) -> List[Digest]:
        """Ordered per-shard ``Hstate`` digests (the composite preimage)."""
        with self.gate.shared():
            return self._shard_roots()

    def _shard_roots(self) -> List[Digest]:
        return [shard.root_digest() for shard in self.shards]

    def root_digest(self) -> Digest:
        """Composite ``Hstate``: the hash over the ordered shard roots."""
        with self.gate.shared():
            return hash_concat(self._shard_roots())

    # =========================================================================
    # accounting / lifecycle
    # =========================================================================

    @property
    def puts_total(self) -> int:
        """Total puts accepted across all shards."""
        return sum(shard.puts_total for shard in self.shards)

    @property
    def checkpoint_blk(self) -> int:
        """Earliest shard checkpoint: replay the log from after this height."""
        return min(shard.checkpoint_blk for shard in self.shards)

    @property
    def last_blk(self) -> int:
        """Highest block any shard has seen: writers resume above it."""
        return max(self.current_blk, *(shard.checkpoint_blk for shard in self.shards))

    def storage_bytes(self) -> int:
        """Total on-disk footprint across all shards."""
        return sum(shard.storage_bytes() for shard in self.shards)

    def num_disk_levels(self) -> int:
        """Deepest instantiated on-disk level across shards."""
        return max(shard.num_disk_levels() for shard in self.shards)

    def compaction_stats(self) -> dict:
        """Aggregated write-amplification accounting across shards.

        Byte counters sum; the per-level rows merge by paper level.
        Each shard takes its own gate (top gate before shard gates —
        the established lock order).
        """
        merged: dict = {
            "policy": self.params.cole.compaction,
            "bytes_flushed": 0,
            "bytes_rewritten": 0,
            "levels": {},
        }
        with self.gate.shared():
            for shard in self.shards:
                stats = shard.compaction_stats()
                merged["bytes_flushed"] += stats["bytes_flushed"]
                merged["bytes_rewritten"] += stats["bytes_rewritten"]
                for level, row in stats["levels"].items():
                    into = merged["levels"].setdefault(
                        level,
                        {"runs": 0, "entries": 0, "bytes": 0, "bytes_rewritten": 0},
                    )
                    for field in into:
                        into[field] += row[field]
        flushed = merged["bytes_flushed"]
        merged["write_amp"] = (
            round(merged["bytes_rewritten"] / flushed, 4) if flushed else 0.0
        )
        return merged

    def wait_for_merges(self) -> None:
        """Join every shard's background merges (teardown, clean close)."""
        for shard in self.shards:
            shard.wait_for_merges()

    def rewind_to(self, target_blk: int) -> int:
        """Discard every version newer than ``target_blk`` on every shard."""
        with self.gate.exclusive():
            if len(self.shards) == 1:
                dropped = self.shards[0].rewind_to(target_blk)
            else:
                dropped = sum(
                    self._pool.map(
                        lambda shard: shard.rewind_to(target_blk), self.shards
                    )
                )
            self.current_blk = min(self.current_blk, target_blk)
            return dropped

    def close(self) -> None:
        """Join merges, stop the commit pool, and close every shard."""
        self._pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()
