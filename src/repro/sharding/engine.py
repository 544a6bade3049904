"""Sharded COLE: hash-partitioned scale-out of the storage engine.

One :class:`ShardedCole` owns a directory of ``num_shards`` fully
independent :class:`~repro.core.storage.Cole` instances — each with its
own workspace subdirectory, manifest, crash recovery, and background
merges — and the address space hash-partitioned across them
(``repro.sharding.router``).  Because every ``<addr, blk>`` compound key
of one address lives in exactly one shard, point reads, provenance scans,
and proofs are single-shard operations, and a range scan is one merged
cursor over every shard's sources (Algorithm 6's walk, shard after shard).

The composite state root extends Algorithm 5's determinism argument: each
shard's ``Hstate`` is deterministic at its commit checkpoints, so the
ordered hash over per-shard roots is too, regardless of merge timing *and*
of commit scheduling across shards.  Commits and rewinds fan out through
a thread pool so the per-shard file writes and manifest fsyncs — which
release the GIL — overlap in wall-clock time; reads never leave the
caller's thread.

Durability composes per shard (Section 4.3): each shard records its own
checkpoint, recovery replays the transaction log from the *earliest*
shard checkpoint (:attr:`ShardedCole.checkpoint_blk`), and
:meth:`ShardedCole.put_many` drops writes that a shard already holds
durably.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Tuple

from repro.chain.backend import StorageBackend
from repro.common.errors import StorageError
from repro.common.gate import CommitGate
from repro.common.hashing import Digest, hash_concat
from repro.common.params import ShardParams
from repro.core.cursor import ScanTriple, scan_sources
from repro.core.storage import Cole
from repro.diskio.iostats import IOStats
from repro.sharding.proofs import ShardedProvenanceResult
from repro.sharding.router import shard_dirname, shard_of


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
        # One worker per shard, for block-lifecycle I/O only (commit,
        # rewind): reads never hop threads.
        self._pool = ThreadPoolExecutor(
            max_workers=self.params.num_shards, thread_name_prefix="cole-shard"
        )
        self.current_blk = max(shard.current_blk for shard in self.shards)
        # Point reads ride each shard's own view; ops that must observe
        # every shard at one instant (scans, anchored provenance, the
        # shard-root vector) hold this top gate shared, and every mutator
        # (puts, commits, rewind, close) holds it exclusive, so a scan
        # needs no shard gate.  Top gate always before shard gate.
        self.gate = CommitGate("shardedcole-gate")

    def shard_directory(self, index: int) -> str:
        """Workspace subdirectory of shard ``index``."""
        return os.path.join(self.directory, shard_dirname(index))

    def _shard_for(self, addr: bytes) -> Cole:
        return self.shards[shard_of(addr, len(self.shards))]

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
            buckets: List[List[Tuple[bytes, bytes]]] = [[] for _ in range(num_shards)]
            for item in items:
                buckets[shard_of(item[0], num_shards)].append(item)
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
        """Batched get: one routing pass, then one batched lookup on each
        touched shard's own view (latest values need no cross-shard
        instant)."""
        num_shards = len(self.shards)
        buckets: List[List[int]] = [[] for _ in range(num_shards)]
        for index, addr in enumerate(addrs):
            buckets[shard_of(addr, num_shards)].append(index)
        results: List[Optional[bytes]] = [None] * len(addrs)
        for shard, positions in zip(self.shards, buckets):
            if positions:
                values = shard.get_many([addrs[i] for i in positions])
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

        Shards never share an address, so this is the single-engine
        kernel run once over every shard's sources: one merged cursor.
        Holds the top gate shared, which excludes every shard mutator;
        like anchored provenance, the scan describes one instant.
        """
        with self.gate.shared():
            return scan_sources(
                [source for shard in self.shards for source in shard._read_sources()],
                addr_low, addr_high, at_blk=at_blk, limit=limit,
                addr_size=self.params.cole.system.addr_size,
            )

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
            result = ShardedProvenanceResult(
                shard_index=index, shard_roots=self._shard_roots(), result=inner
            )
            return result, self._root_digest()

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
            return self._root_digest()

    def _root_digest(self) -> Digest:
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
            dropped = sum(
                self._pool.map(lambda shard: shard.rewind_to(target_blk), self.shards)
            )
            self.current_blk = min(self.current_blk, target_blk)
            return dropped

    def close(self) -> None:
        """Join merges, stop the commit pool, and close every shard —
        under the top gate exclusive, so an in-flight scan (which holds
        only that gate) finishes before its file handles close."""
        self._pool.shutdown(wait=True)
        with self.gate.exclusive():
            for shard in self.shards:
                shard.close()
