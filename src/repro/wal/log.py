"""The segmented write-ahead log: fsync-batched durability for acked puts.

One :class:`WriteAheadLog` owns a directory holding one segment chain::

    <directory>/WAL.json              # {"format": 2}
    <directory>/seg-00000001.wal
    <directory>/seg-00000002.wal
    ...

Records (see :mod:`repro.wal.record`) carry their block height:
recovery replays every record above the engine's durable checkpoint
through the engine's ordinary write path.

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

A segment lives from one engine checkpoint advance to the next:
:meth:`seal` starts a new segment at an advance, and :meth:`truncate`
deletes sealed, synced segments whose newest record height is at or
below the engine's checkpoint (``Cole.checkpoint_blk``).  ``Run.build``
fsyncs every run before a manifest names it, so those puts are durable
in runs the manifest names and the WAL no longer owes them to recovery.
A segment also seals when it outgrows ``segment_max_bytes`` (checked at
append time; records never straddle segments).  A sealed segment's file
handle stays open until a sync covers it, then closes.

On open, every segment's torn tail (a crash mid-append) is trimmed to
the last clean record boundary, so new appends never land after garbage.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.debuglock import maybe_debug_lock
from repro.common.errors import StorageError
from repro.diskio import durable
from repro.wal.record import (
    ScanResult,
    WalRecord,
    encode_commit,
    encode_puts,
    scan_records,
)

#: A workspace's (and a snapshot's) WAL directory, beside the run files.
WAL_DIR_NAME = "wal"
WAL_META_NAME = "WAL.json"
WAL_FORMAT = 2
SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".wal"

SYNC_POLICIES = ("none", "batch", "always")


def segment_name(seq: int) -> str:
    return f"{SEGMENT_PREFIX}{seq:08d}{SEGMENT_SUFFIX}"


def segment_seq(name: str) -> Optional[int]:
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


class WriteAheadLog:
    """Segmented, checksummed, fsync-batched write-ahead log."""

    def __init__(
        self,
        directory: str,
        sync_policy: str = "batch",
        segment_max_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        """Open (creating or trimming) the WAL rooted at ``directory``."""
        if sync_policy not in SYNC_POLICIES:
            raise StorageError(
                f"unknown sync policy {sync_policy!r}; choose from {SYNC_POLICIES}"
            )
        if segment_max_bytes < 1:
            raise StorageError("segment_max_bytes must be positive")
        self.directory = directory
        self.sync_policy = sync_policy
        self.segment_max_bytes = segment_max_bytes
        self._lock = maybe_debug_lock("wal-append")
        # Serializes whole sync() passes.  Without it, a second concurrent
        # sync would observe `_dirty == False` (cleared by the first pass),
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
        # The chain (guarded by the lock): the active segment, then the
        # sealed ones still owing an fsync and those past it.
        self._seq = 0
        self._handle = None
        self._path = ""
        self._size = 0
        self._max_height = -1
        self._dirty = False
        #: A segment file was created since the last directory fsync.
        self._dir_dirty = True
        self._sealed_dirty: List[_Sealed] = []
        self._sealed_synced: List[_Sealed] = []
        os.makedirs(directory, exist_ok=True)
        self._check_meta()
        self._open_chain()

    # =========================================================================
    # open / recovery hygiene
    # =========================================================================

    def _check_meta(self) -> None:
        path = os.path.join(self.directory, WAL_META_NAME)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                found = json.load(handle).get("format")
            if found != WAL_FORMAT:
                # Opening it as an empty log would silently drop acked writes.
                raise StorageError(
                    f"WAL at {self.directory} is format {found}; this build "
                    f"reads format {WAL_FORMAT} — replay it with the build "
                    "that wrote it first"
                )
            return
        with durable.replacing(path) as handle:
            handle.write(json.dumps({"format": WAL_FORMAT}).encode("utf-8"))

    def _open_chain(self) -> None:
        sequences = sorted(
            seq
            for name in os.listdir(self.directory)
            if (seq := segment_seq(name)) is not None
        )
        for seq in sequences:
            path = os.path.join(self.directory, segment_name(seq))
            heights = [record.height for record in self._trim_tail(path).records]
            self._sealed_synced.append(_Sealed(path=path, max_height=max(heights, default=-1)))
        # The newest existing segment (if any) becomes the append target
        # again only when it has room; otherwise start a fresh one.  Either
        # way appends land after the trimmed clean prefix.
        self._seq = (sequences[-1] if sequences else 0) + 1
        if sequences and os.path.getsize(
            self._sealed_synced[-1].path
        ) < self.segment_max_bytes:
            reopened = self._sealed_synced.pop()
            self._seq = sequences[-1]
            self._path = reopened.path
            self._max_height = reopened.max_height
        else:
            self._path = os.path.join(self.directory, segment_name(self._seq))
        self._handle = open(self._path, "ab", buffering=0)
        self._size = os.path.getsize(self._path)

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
        """:meth:`append_puts` of one put: the same record bytes."""
        return self.append_puts([(addr, value)], height)

    def append_puts(self, items: List[Tuple[bytes, bytes]], height: int) -> int:
        """Append a whole batch as one record; returns its LSN.

        The server logs each PUT and MULTI_PUT with it, pre-ack, as do
        embedders logging outside the serving layer.
        """
        record = encode_puts(height, items)
        with self._lock:
            self.puts_appended += len(items)
            return self._append(record, height)

    def append_commit(self, height: int, root: bytes) -> int:
        """Mark block ``height`` committed with state root ``root``."""
        record = encode_commit(height, root)
        with self._lock:
            return self._append(record, height)

    def _append(self, record: bytes, height: int) -> int:
        """Write one encoded record (caller holds the lock)."""
        if self._closed:
            raise StorageError("write-ahead log is closed")
        self._write_all(record)
        self._size += len(record)
        self._max_height = max(self._max_height, height)
        self._dirty = True
        self.records_appended += 1
        self.bytes_appended += len(record)
        self._lsn += 1
        if self._size >= self.segment_max_bytes:
            self._seal()
        return self._lsn

    def _write_all(self, record: bytes) -> None:
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
                count = self._handle.write(view[written:])
                if not count:
                    raise StorageError("WAL segment write returned no progress")
                written += count
        except BaseException:
            if written:
                try:
                    self._handle.truncate(self._size)
                except OSError:
                    self._closed = True  # cannot restore the boundary: poison
            raise

    def _seal(self) -> None:
        """Rotate to a fresh segment (caller holds the lock).

        The outgoing handle stays open until a sync covers it — closing
        early would let truncation treat never-synced bytes as durable.
        """
        self._sealed_dirty.append(
            _Sealed(path=self._path, max_height=self._max_height, handle=self._handle)
        )
        self._seq += 1
        self._path = os.path.join(self.directory, segment_name(self._seq))
        self._handle = open(self._path, "ab", buffering=0)
        self._size = 0
        self._max_height = -1
        self._dirty = True
        self._dir_dirty = True  # the next sync persists the new entry

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
        observed complete* covered its records.  The directory is
        synced too when it gained a segment file since the last sync,
        or a machine crash could drop a freshly rotated segment whose
        data blocks were flushed but whose directory entry was not.
        """
        with self._sync_lock:
            started = time.perf_counter()
            with self._lock:
                if self._closed:
                    return self.synced_lsn
                covered = self._lsn
                to_sync = [sealed.handle for sealed in self._sealed_dirty]
                if self._dirty:
                    to_sync.append(self._handle)
                    self._dirty = False
                sync_dir, self._dir_dirty = self._dir_dirty, False
                captured = set(to_sync)
            for handle in to_sync:
                os.fsync(handle.fileno())
            if sync_dir:
                durable.fsync(self.directory)
            # Settle only segments whose handle this pass captured: a
            # segment sealed *during* the fsyncs (its handle was the
            # active one we captured) may have gained pre-seal bytes
            # after our fsync call, so fsync it once more — usually a
            # no-op — before the handle closes forever.  Segments sealed
            # from a handle we never captured stay dirty for the next
            # pass; closing them here would orphan never-synced bytes
            # that a later `covered` would then falsely claim.
            with self._lock:
                to_settle = [
                    sealed for sealed in self._sealed_dirty if sealed.handle in captured
                ]
            for sealed in to_settle:
                os.fsync(sealed.handle.fileno())
            with self._lock:
                for sealed in to_settle:
                    if sealed not in self._sealed_dirty:
                        continue  # a concurrent truncate settled it
                    self._sealed_dirty.remove(sealed)
                    sealed.handle.close()
                    sealed.handle = None
                    self._sealed_synced.append(sealed)
                self.syncs += 1
                if covered > self.synced_lsn:
                    self.synced_lsn = covered
                self.sync_seconds = time.perf_counter() - started
                return self.synced_lsn

    def _settle_sealed(self) -> None:
        """Close sealed-dirty segments into sealed-synced (lock held)."""
        for sealed in self._sealed_dirty:
            if sealed.handle is not None:
                sealed.handle.close()
                sealed.handle = None
            self._sealed_synced.append(sealed)
        self._sealed_dirty = []

    # =========================================================================
    # truncation
    # =========================================================================

    def seal(self) -> None:
        """Start a new segment if the active one holds a record: the
        server seals behind each commit that advances the engine
        checkpoint, and the next advance's :meth:`truncate` deletes it."""
        with self._lock:
            if self._size and not self._closed:
                self._seal()

    def truncate(self, checkpoint: int) -> int:
        """Delete sealed segments fully covered by the engine checkpoint.

        ``checkpoint`` is a height whose writes are all in synced runs
        the engine's manifest names (``Cole.checkpoint_blk``): a segment
        whose newest record height is at or below it holds only writes
        already durable there.  Returns the number of segments deleted;
        only sealed segments a sync has covered go, so a call that
        covers nothing changes nothing.

        The segments leave the live list under the append lock but are
        unlinked after it is released: freeing a synced file's blocks
        can take tens of milliseconds, and appends must not wait on it.
        If an unlink fails, that segment and every one not yet tried go
        back on the live list, so a later call finds them again, and the
        error propagates.
        """
        with self._lock:
            if self.sync_policy == "none":
                # Never synced by design; close so the files are deletable.
                self._settle_sealed()
            covered = [s for s in self._sealed_synced if s.max_height <= checkpoint]
            self._sealed_synced = [
                s for s in self._sealed_synced if s.max_height > checkpoint
            ]
        removed = 0
        try:
            for sealed in covered:
                os.remove(sealed.path)
                removed += 1
        finally:
            with self._lock:
                self._sealed_synced[:0] = covered[removed:]
                self.truncated_segments += removed
        return removed

    # =========================================================================
    # scanning (recovery / inspection)
    # =========================================================================

    def scan(self) -> List[WalRecord]:
        """The valid record prefix of every live segment, oldest first.

        Reads from disk, so it sees exactly what recovery after a crash
        would see; segments are scanned independently and each one's torn
        tail (if any) is skipped without failing the scan.
        """
        with self._lock:
            paths = [sealed.path for sealed in self._sealed_dirty + self._sealed_synced]
            paths.append(self._path)
        records: List[WalRecord] = []
        for path in sorted(set(paths)):
            if not os.path.exists(path):
                continue
            with open(path, "rb") as handle:
                records.extend(scan_records(handle.read()).records)
        return records

    def live_files(self) -> List[Tuple[str, int]]:
        """``(path, copy_bytes)`` per live segment, oldest first.

        Captured under the append lock, so every byte count lands on a
        record boundary even while appends continue — the snapshot path
        copies exactly these prefixes instead of racing a mid-record
        append.
        """
        with self._lock:
            out = [
                (sealed.path, os.path.getsize(sealed.path))
                for sealed in self._sealed_dirty + self._sealed_synced
            ]
            out.append((self._path, self._size))
            return sorted(out)

    def live_segments(self) -> int:
        """Number of segment files currently on disk."""
        with self._lock:
            return 1 + len(self._sealed_dirty) + len(self._sealed_synced)

    def stats(self) -> dict:
        """Counters for the server's STATS op."""
        return {
            "policy": self.sync_policy,
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
            self._settle_sealed()
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
