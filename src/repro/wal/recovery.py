"""Crash recovery: replay the WAL tail into a recovered engine.

After a crash, the engine's own recovery (Section 4.3) restores every
committed run from the manifest — but the in-memory level is gone, and
with it every acked write newer than the durable checkpoint.  Those
writes are exactly what the WAL still holds: :func:`replay_wal` reads
the chain, drops records the engine already holds durably (``height <=
checkpoint_blk``), groups the survivors by block height, and re-commits
them in ascending height order through the engine's ordinary block
lifecycle.  Replay preserves each write's original block assignment, so
the recovered compound keys — and therefore ``Hstate`` — are identical
to the pre-crash state.

Replay is idempotent: running it twice re-inserts the same
``<addr, blk>`` keys with the same values, which overwrite in L0 to the
same state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import StorageError
from repro.wal.log import WriteAheadLog
from repro.wal.record import RecordType


@dataclass
class ReplayStats:
    """What one recovery replay did."""

    records_scanned: int = 0
    puts_replayed: int = 0
    puts_skipped_durable: int = 0  # already in committed runs (<= checkpoint)
    puts_skipped_invalid: int = 0  # rejected by the engine (malformed)
    blocks_replayed: int = 0
    first_height: int = -1
    last_height: int = -1
    commits_seen: Dict[int, bytes] = field(default_factory=dict)
    #: height -> root of every block this replay re-committed whose
    #: COMMIT marker did not survive the crash.  Recovery does not write,
    #: so a primary that ships its WAL to replicas re-marks them from this
    #: map before serving (see repro.replication).  A surviving marker is
    #: kept instead: a replayed block re-commits onto recovered structure
    #: that can be ahead of its own (a COLE* manifest one cascade on), so
    #: its new root need not be the block's.
    replayed_roots: Dict[int, bytes] = field(default_factory=dict)

    @property
    def replayed_anything(self) -> bool:
        return self.blocks_replayed > 0


def replay_wal(engine, wal: WriteAheadLog) -> ReplayStats:
    """Replay ``wal``'s unacked tail into ``engine``; returns statistics.

    ``engine`` is a freshly opened ``Cole``.  It is
    left with every surviving write committed at its original height;
    the WAL itself is not modified — truncation happens later, once the
    engine checkpoints the replayed blocks into runs.
    """
    checkpoint = engine.checkpoint_blk
    stats = ReplayStats()
    by_height: Dict[int, List[Tuple[bytes, bytes]]] = {}
    for record in wal.scan():
        stats.records_scanned += 1
        if record.type == RecordType.COMMIT:
            stats.commits_seen[record.height] = record.root
            continue
        if record.height <= checkpoint:
            stats.puts_skipped_durable += len(record.items)
            continue
        by_height.setdefault(record.height, []).extend(record.items)
    # Heights below what *this process* already executed are skipped (an
    # in-process re-replay); a freshly opened engine starts at 0.
    floor = engine.current_blk
    for height in sorted(by_height):
        if height < floor:
            stats.puts_skipped_durable += len(by_height[height])
            continue
        engine.begin_block(height)
        applied = _apply(engine, by_height[height], stats)
        root = engine.commit_block()
        if applied:
            stats.blocks_replayed += 1
            if height not in stats.commits_seen:
                stats.replayed_roots[height] = bytes(root)
            if stats.first_height < 0:
                stats.first_height = height
            stats.last_height = height
    return stats


def _apply(engine, items: List[Tuple[bytes, bytes]], stats: ReplayStats) -> int:
    """Apply one block's surviving writes; malformed ones are skipped.

    A write the engine rejects (wrong address width after a parameter
    change, for example) can never become readable state, so recovery
    counts it and moves on instead of wedging the whole store.
    """
    try:
        engine.put_many(items)
        stats.puts_replayed += len(items)
        return len(items)
    except StorageError:
        applied = 0
        for addr, value in items:
            try:
                engine.put(addr, value)
                applied += 1
            except StorageError:
                stats.puts_skipped_invalid += 1
        stats.puts_replayed += applied
        return applied
