"""The segmented write-ahead log: fsync-batched durability for acked puts.

One :class:`WriteAheadLog` owns a directory of per-shard segment chains::

    <directory>/WAL.json                  # num_shards, format version
    <directory>/shard-00/seg-00000001.wal
    <directory>/shard-00/seg-00000002.wal
    <directory>/shard-01/seg-00000001.wal
    ...

Records (see :mod:`repro.wal.record`) are routed to a shard chain with
the same crc32 partition the sharded engine uses, so each shard's WAL
replays into exactly the shard that lost the writes.  A single-engine
store is the one-shard special case.

Appends are cheap and thread-safe: segment files are opened unbuffered,
so one append is one ``write`` syscall into the OS page cache under the
log's lock.  Durability is a separate step — :meth:`sync` — whose cost
(one ``fsync`` per dirty segment file) is what the serving layer's group
commit amortizes across every put acknowledged by that sync.

Sync policies (``sync_policy``):

* ``"batch"``  — acks wait for a group fsync: many puts, one fsync.
* ``"always"`` — every ack issues its own fsync (the slow, strictest mode).
* ``"none"``   — acks return once the record reached the OS page cache;
  data survives a process kill but not a machine crash.

Segments **seal** when they outgrow ``segment_max_bytes`` (checked at
append time; records never straddle segments).  A sealed segment's file
handle stays open until a sync covers it, then closes.  Truncation —
:meth:`truncate` — deletes sealed, synced segments whose newest record
height is at or below the owning shard's engine checkpoint: those puts
are durable in committed runs and named by the manifest, so the WAL no
longer owes them to recovery.

On open, every segment's torn tail (a crash mid-append) is trimmed to
the last clean record boundary, so new appends never land after garbage.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.debuglock import maybe_debug_lock
from repro.common.errors import StorageError
from repro.sharding import shard_dirname, shard_of
from repro.wal.record import (
    ScanResult,
    WalRecord,
    encode_commit,
    encode_puts,
    scan_records,
)

WAL_META_NAME = "WAL.json"
SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".wal"

SYNC_POLICIES = ("none", "batch", "always")


def segment_name(seq: int) -> str:
    return f"{SEGMENT_PREFIX}{seq:08d}{SEGMENT_SUFFIX}"


def _fsync_dir(path: str) -> None:
    """fsync a directory so freshly created entries survive a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _segment_seq(name: str) -> Optional[int]:
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    try:
        return int(name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])
    except ValueError:
        return None


@dataclass
class _Sealed:
    """A rotated-out segment awaiting (or past) its covering fsync."""

    path: str
    max_height: int
    handle: Optional[object] = None  # open file while fsync is still owed


@dataclass
class _ShardChain:
    """One shard's segment chain state (guarded by the log's lock)."""

    directory: str
    seq: int = 0
    handle: Optional[object] = None
    path: str = ""
    size: int = 0
    max_height: int = -1
    dirty: bool = False
    #: A segment file was created since the last directory fsync.
    dir_dirty: bool = True
    sealed_dirty: List[_Sealed] = field(default_factory=list)
    sealed_synced: List[_Sealed] = field(default_factory=list)


class WriteAheadLog:
    """Segmented, checksummed, fsync-batched write-ahead log."""

    def __init__(
        self,
        directory: str,
        num_shards: int = 1,
        sync_policy: str = "batch",
        segment_max_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        """Open (creating or trimming) the WAL rooted at ``directory``."""
        if num_shards < 1:
            raise StorageError("WAL needs at least one shard chain")
        if sync_policy not in SYNC_POLICIES:
            raise StorageError(
                f"unknown sync policy {sync_policy!r}; choose from {SYNC_POLICIES}"
            )
        if segment_max_bytes < 1:
            raise StorageError("segment_max_bytes must be positive")
        self.directory = directory
        self.num_shards = num_shards
        self.sync_policy = sync_policy
        self.segment_max_bytes = segment_max_bytes
        self._lock = maybe_debug_lock("wal-append")
        # Serializes whole sync() passes.  Without it, a second concurrent
        # sync would observe `dirty == False` (cleared by the first pass),
        # skip the fsync, and advance `synced_lsn` past records whose
        # fsync is still in flight — acking a write before it is durable.
        self._sync_lock = maybe_debug_lock("wal-sync")
        self._lsn = 0
        self.synced_lsn = 0
        #: Duration of the last completed :meth:`sync` pass, on its thread.
        self.sync_seconds = 0.0
        self._closed = False
        # Accounting (exposed via the server's STATS op).
        self.puts_appended = 0
        self.records_appended = 0
        self.bytes_appended = 0
        self.syncs = 0
        self.truncated_segments = 0
        self.trimmed_tails = 0
        os.makedirs(directory, exist_ok=True)
        self._check_meta()
        self._chains: List[_ShardChain] = [
            self._open_chain(index) for index in range(num_shards)
        ]

    # =========================================================================
    # open / recovery hygiene
    # =========================================================================

    def _check_meta(self) -> None:
        path = os.path.join(self.directory, WAL_META_NAME)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            if meta.get("num_shards") != self.num_shards:
                raise StorageError(
                    f"WAL at {self.directory} was written for "
                    f"{meta.get('num_shards')} shards, not {self.num_shards}; "
                    "replay it with the original shard count first"
                )
            return
        temp = path + ".tmp"
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump({"format": 1, "num_shards": self.num_shards}, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
        _fsync_dir(self.directory)

    def shard_dir(self, index: int) -> str:
        return os.path.join(self.directory, shard_dirname(index))

    def _open_chain(self, index: int) -> _ShardChain:
        directory = self.shard_dir(index)
        os.makedirs(directory, exist_ok=True)
        chain = _ShardChain(directory=directory)
        sequences = sorted(
            seq
            for name in os.listdir(directory)
            if (seq := _segment_seq(name)) is not None
        )
        for seq in sequences:
            path = os.path.join(directory, segment_name(seq))
            result = self._trim_tail(path)
            max_height = max(
                (record.height for record in result.records), default=-1
            )
            chain.sealed_synced.append(_Sealed(path=path, max_height=max_height))
        # The newest existing segment (if any) becomes the append target
        # again only when it has room; otherwise start a fresh one.  Either
        # way appends land after the trimmed clean prefix.
        chain.seq = (sequences[-1] if sequences else 0) + 1
        if sequences and os.path.getsize(
            os.path.join(directory, segment_name(sequences[-1]))
        ) < self.segment_max_bytes:
            reopened = chain.sealed_synced.pop()
            chain.seq = sequences[-1]
            chain.path = reopened.path
            chain.max_height = reopened.max_height
        else:
            chain.path = os.path.join(directory, segment_name(chain.seq))
        chain.handle = open(chain.path, "ab", buffering=0)
        chain.size = os.path.getsize(chain.path)
        return chain

    def _trim_tail(self, path: str) -> ScanResult:
        """Cut a segment back to its last clean record boundary."""
        with open(path, "rb") as handle:
            result = scan_records(handle.read())
        if result.torn:
            with open(path, "r+b") as handle:
                handle.truncate(result.clean_bytes)
            self.trimmed_tails += 1
        return result

    # =========================================================================
    # append path
    # =========================================================================

    def append_put(self, addr: bytes, value: bytes, height: int) -> int:
        """Append one put record; returns the LSN a sync must cover."""
        record = encode_puts(height, [(addr, value)])
        shard = shard_of(addr, self.num_shards)
        with self._lock:
            self.puts_appended += 1
            return self._append(shard, record, height)

    def append_puts(self, items: List[Tuple[bytes, bytes]], height: int) -> int:
        """Append a whole batch, routed per shard; returns the batch LSN.

        The bulk variant: the server logs a MULTI_PUT with it, pre-ack, as
        do embedders logging outside the serving layer.
        """
        buckets: Dict[int, List[Tuple[bytes, bytes]]] = {}
        for addr, value in items:
            buckets.setdefault(shard_of(addr, self.num_shards), []).append(
                (addr, value)
            )
        with self._lock:
            lsn = self._lsn
            for shard, bucket in sorted(buckets.items()):
                self.puts_appended += len(bucket)
                lsn = self._append(shard, encode_puts(height, bucket), height)
        return lsn

    def append_commit(self, height: int, root: bytes) -> int:
        """Mark block ``height`` committed (appended to every chain)."""
        record = encode_commit(height, root)
        with self._lock:
            lsn = self._lsn
            for shard in range(self.num_shards):
                lsn = self._append(shard, record, height)
        return lsn

    def _append(self, shard: int, record: bytes, height: int) -> int:
        """Write one encoded record (caller holds the lock)."""
        if self._closed:
            raise StorageError("write-ahead log is closed")
        chain = self._chains[shard]
        self._write_all(chain, record)
        chain.size += len(record)
        chain.max_height = max(chain.max_height, height)
        chain.dirty = True
        self.records_appended += 1
        self.bytes_appended += len(record)
        self._lsn += 1
        if chain.size >= self.segment_max_bytes:
            self._seal(chain)
        return self._lsn

    def _write_all(self, chain: _ShardChain, record: bytes) -> None:
        """Write every byte of ``record``, or leave no trace of it.

        Raw (unbuffered) ``write`` may report a short count without
        raising — ENOSPC with some space left is the classic trigger.
        A half-written record would poison the segment: the checksum
        scan stops at it, silently discarding every *later* acked record
        in the chain.  So on any failure the segment is truncated back
        to the last record boundary; if even that fails, the log closes
        and refuses further appends rather than ack over a torn file.
        """
        view = memoryview(record)
        written = 0
        try:
            while written < len(view):
                count = chain.handle.write(view[written:])
                if not count:
                    raise StorageError("WAL segment write returned no progress")
                written += count
        except BaseException:
            if written:
                try:
                    chain.handle.truncate(chain.size)
                except OSError:
                    self._closed = True  # cannot restore the boundary: poison
            raise

    def _seal(self, chain: _ShardChain) -> None:
        """Rotate to a fresh segment (caller holds the lock).

        The outgoing handle stays open until a sync covers it — closing
        early would let truncation treat never-fsynced bytes as durable.
        """
        chain.sealed_dirty.append(
            _Sealed(path=chain.path, max_height=chain.max_height, handle=chain.handle)
        )
        chain.seq += 1
        chain.path = os.path.join(chain.directory, segment_name(chain.seq))
        chain.handle = open(chain.path, "ab", buffering=0)
        chain.size = 0
        chain.max_height = -1
        chain.dirty = True
        chain.dir_dirty = True  # the next sync persists the new entry

    # =========================================================================
    # durability
    # =========================================================================

    def sync(self) -> int:
        """fsync every dirty segment; returns the LSN now durable.

        Safe to call from any thread, concurrently with appends: the
        fsyncs run outside the append lock against captured handles, and
        the returned LSN only claims what was appended before they
        started.  Concurrent syncs serialize on their own lock (the
        ``always`` policy issues one per ack from a thread pool) — each
        pass re-captures, so a caller never returns until an fsync *it
        observed complete* covered its records.  Directories that gained
        a segment file since the last sync are fsynced too, or a machine
        crash could drop a freshly rotated segment whose data blocks
        were flushed but whose directory entry was not.
        """
        with self._sync_lock:
            started = time.perf_counter()
            with self._lock:
                if self._closed:
                    return self.synced_lsn
                covered = self._lsn
                to_sync = []
                dirs_to_sync = []
                for chain in self._chains:
                    if chain.dirty:
                        to_sync.append(chain.handle)
                        chain.dirty = False
                    to_sync.extend(sealed.handle for sealed in chain.sealed_dirty)
                    if chain.dir_dirty:
                        dirs_to_sync.append(chain.directory)
                        chain.dir_dirty = False
                captured = set(to_sync)
            for handle in to_sync:
                os.fsync(handle.fileno())
            for path in dirs_to_sync:
                _fsync_dir(path)
            # Settle only segments whose handle this pass captured: a
            # segment sealed *during* the fsyncs (its handle was the
            # active one we captured) may have gained pre-seal bytes
            # after our fsync call, so fsync it once more — usually a
            # no-op — before the handle closes forever.  Segments sealed
            # from a handle we never captured stay dirty for the next
            # pass; closing them here would orphan never-fsynced bytes
            # that a later `covered` would then falsely claim.
            with self._lock:
                to_settle = [
                    (chain, sealed)
                    for chain in self._chains
                    for sealed in chain.sealed_dirty
                    if sealed.handle in captured
                ]
            for _chain, sealed in to_settle:
                os.fsync(sealed.handle.fileno())
            with self._lock:
                for chain, sealed in to_settle:
                    if sealed not in chain.sealed_dirty:
                        continue  # a concurrent truncate settled it
                    chain.sealed_dirty.remove(sealed)
                    sealed.handle.close()
                    sealed.handle = None
                    chain.sealed_synced.append(sealed)
                self.syncs += 1
                if covered > self.synced_lsn:
                    self.synced_lsn = covered
                self.sync_seconds = time.perf_counter() - started
                return self.synced_lsn

    def _settle_sealed(self, close_handles: bool) -> None:
        """Move sealed-dirty segments to sealed-synced (lock held)."""
        for chain in self._chains:
            for sealed in chain.sealed_dirty:
                if close_handles and sealed.handle is not None:
                    sealed.handle.close()
                    sealed.handle = None
                chain.sealed_synced.append(sealed)
            chain.sealed_dirty = []

    # =========================================================================
    # truncation
    # =========================================================================

    def truncate(self, checkpoints: List[int]) -> int:
        """Delete sealed segments fully covered by the engine checkpoints.

        ``checkpoints[i]`` is shard *i*'s durable checkpoint height
        (``Cole.checkpoint_blk``): a segment whose newest record height is
        at or below it holds only writes already named by the manifest.
        Returns the number of segments deleted.
        """
        if len(checkpoints) != self.num_shards:
            raise StorageError(
                f"got {len(checkpoints)} checkpoints for {self.num_shards} shards"
            )
        deleted = 0
        with self._lock:
            if self.sync_policy == "none":
                # Never fsynced by design; close so the files are deletable.
                self._settle_sealed(close_handles=True)
            for shard, chain in enumerate(self._chains):
                keep: List[_Sealed] = []
                for sealed in chain.sealed_synced:
                    if sealed.max_height <= checkpoints[shard]:
                        os.remove(sealed.path)
                        deleted += 1
                    else:
                        keep.append(sealed)
                chain.sealed_synced = keep
            self.truncated_segments += deleted
        return deleted

    # =========================================================================
    # scanning (recovery / inspection)
    # =========================================================================

    def scan(self) -> List[List[WalRecord]]:
        """Per-shard valid record prefixes, oldest segment first.

        Reads from disk, so it sees exactly what recovery after a crash
        would see; segments are scanned independently and each one's torn
        tail (if any) is skipped without failing the scan.
        """
        with self._lock:
            chains = [
                [sealed.path for sealed in chain.sealed_dirty + chain.sealed_synced]
                + [chain.path]
                for chain in self._chains
            ]
        per_shard: List[List[WalRecord]] = []
        for paths in chains:
            records: List[WalRecord] = []
            for path in sorted(set(paths)):
                if not os.path.exists(path):
                    continue
                with open(path, "rb") as handle:
                    records.extend(scan_records(handle.read()).records)
            per_shard.append(records)
        return per_shard

    def live_files(self) -> List[Tuple[int, str, int]]:
        """``(shard, path, copy_bytes)`` per live segment, oldest first.

        Captured under the append lock, so every byte count lands on a
        record boundary even while appends continue — the snapshot path
        copies exactly these prefixes instead of racing a mid-record
        append.
        """
        with self._lock:
            out: List[Tuple[int, str, int]] = []
            for index, chain in enumerate(self._chains):
                for sealed in chain.sealed_dirty + chain.sealed_synced:
                    out.append((index, sealed.path, os.path.getsize(sealed.path)))
                out.append((index, chain.path, chain.size))
            return out

    def live_segments(self) -> int:
        """Number of segment files currently on disk."""
        with self._lock:
            return sum(
                1 + len(chain.sealed_dirty) + len(chain.sealed_synced)
                for chain in self._chains
            )

    def stats(self) -> dict:
        """Counters for the server's STATS op."""
        return {
            "policy": self.sync_policy,
            "shards": self.num_shards,
            "directory": self.directory,
            "puts_appended": self.puts_appended,
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "syncs": self.syncs,
            "synced_lsn": self.synced_lsn,
            "appended_lsn": self._lsn,
            "segments": self.live_segments(),
            "truncated_segments": self.truncated_segments,
            "trimmed_tails": self.trimmed_tails,
        }

    # =========================================================================
    # lifecycle
    # =========================================================================

    def close(self) -> None:
        """Make appended records durable (per policy) and close handles."""
        if self.sync_policy != "none":
            self.sync()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for chain in self._chains:
                for sealed in chain.sealed_dirty:
                    if sealed.handle is not None:
                        sealed.handle.close()
                        sealed.handle = None
                    chain.sealed_synced.append(sealed)
                chain.sealed_dirty = []
                if chain.handle is not None:
                    chain.handle.close()
                    chain.handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
