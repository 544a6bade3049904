"""Durability subsystem: write-ahead log, crash recovery, snapshots.

The serving layer acks a PUT only after its WAL record is durable (one
group fsync covers many acks); crash recovery replays the WAL tail into
a recovered engine at the original block heights; a snapshot captures,
under the commit gate, hard links to the runs and copies of the manifest
and WAL tail.  See DESIGN.md
("Durability") for the record format and the truncation protocol.
"""

from repro.wal.log import SYNC_POLICIES, WriteAheadLog, segment_name
from repro.wal.record import (
    MAX_RECORD,
    RecordType,
    ScanResult,
    WalRecord,
    encode_commit,
    encode_puts,
    scan_records,
)
from repro.wal.recovery import ReplayStats, replay_wal
from repro.wal.snapshot import (
    SNAPSHOT_META_NAME,
    load_snapshot_meta,
    restore_store,
    snapshot_store,
    verify_snapshot,
)

__all__ = [
    "WriteAheadLog",
    "SYNC_POLICIES",
    "segment_name",
    "WalRecord",
    "RecordType",
    "ScanResult",
    "MAX_RECORD",
    "encode_puts",
    "encode_commit",
    "scan_records",
    "ReplayStats",
    "replay_wal",
    "snapshot_store",
    "restore_store",
    "verify_snapshot",
    "load_snapshot_meta",
    "SNAPSHOT_META_NAME",
]
