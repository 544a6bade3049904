"""WAL record format: checksummed, torn-tail-safe framing.

Every record in a segment file is::

    u32 crc32(body) | u32 body_len | body
    body := u8 type | u64 height | payload

Two record types:

* ``PUTS`` — one group-commit batch's writes, all assigned to block
  ``height``::

      payload := u32 count | count x (u16 addr_len | addr | u32 value_len | value)

* ``COMMIT`` — the engine committed block ``height`` with state root
  ``digest``::

      payload := u16 digest_len | digest

All integers are big-endian.  The crc covers the body only, so a torn
header and a torn body are both detected the same way: the record (and
everything after it in that segment) is ignored.

Scanning is **prefix-safe**: :func:`scan_records` yields every record up
to the first anomaly — truncated header, truncated body, impossible
length, checksum mismatch, or unparseable body — and then reports *how*
it stopped instead of raising.  A crash can only tear the un-synced tail
of a segment (appends are sequential and acks wait for fsync under the
batched policy), so the valid prefix is exactly the durable prefix.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.codec import U64, Cursor, decode_u32, pack_bytes16, pack_items
from repro.common.errors import StorageError

_HEADER = struct.Struct(">II")  # crc32, body_len
_PUTS_HEAD = struct.Struct(">BQI")  # type, height, count

#: Hard cap on one record's body: a batch cannot legitimately exceed it,
#: so a larger length prefix means corruption, not data.
MAX_RECORD = 64 * 1024 * 1024


class RecordType:
    """WAL record type tags."""

    PUTS = 1
    COMMIT = 2


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record."""

    type: int
    height: int
    #: PUTS: the ordered ``(addr, value)`` batch.  COMMIT: empty.
    items: Tuple[Tuple[bytes, bytes], ...] = ()
    #: COMMIT: the committed state root.  PUTS: ``b""``.
    root: bytes = b""


def encode_puts(height: int, items: List[Tuple[bytes, bytes]]) -> bytes:
    """Encode one batch of puts assigned to block ``height``."""
    return _seal(_PUTS_HEAD.pack(RecordType.PUTS, height, len(items)) + pack_items(items))


def encode_commit(height: int, root: bytes) -> bytes:
    """Encode an engine-commit marker for block ``height``."""
    return _seal(bytes([RecordType.COMMIT]) + U64.pack(height) + pack_bytes16(root))


def _seal(body: bytes) -> bytes:
    if len(body) > MAX_RECORD:
        raise StorageError("WAL record exceeds MAX_RECORD")
    return _HEADER.pack(zlib.crc32(body), len(body)) + body


def _decode_body(body: bytes) -> WalRecord:
    """Decode a checksum-verified body; raises StorageError on bad shape."""
    cursor = Cursor(body)
    rtype, height = cursor.u8(), cursor.u64()
    if rtype == RecordType.PUTS:
        record = WalRecord(rtype, height, items=tuple(cursor.items(cursor.u32())))
    elif rtype == RecordType.COMMIT:
        record = WalRecord(rtype, height, root=cursor.bytes16())
    else:
        raise StorageError(f"unknown WAL record type {rtype}")
    if not cursor.done():
        raise StorageError("trailing bytes after the WAL record's payload")
    return record


@dataclass
class ScanResult:
    """Outcome of scanning one segment file."""

    records: List[WalRecord]
    #: ``None`` when the segment ended exactly at a record boundary;
    #: otherwise a short reason ("torn header", "bad checksum", ...).
    anomaly: Optional[str] = None
    #: Byte offset of the first anomalous record (== file size when clean).
    clean_bytes: int = 0

    @property
    def torn(self) -> bool:
        return self.anomaly is not None


def scan_records(data: bytes) -> ScanResult:
    """Decode the valid record prefix of one segment's raw bytes."""
    records: List[WalRecord] = []
    pos = 0
    size = len(data)
    while pos < size:
        if size - pos < _HEADER.size:
            return ScanResult(records, "torn header", pos)
        crc, body_len = decode_u32(data, pos), decode_u32(data, pos + 4)
        if body_len == 0 or body_len > MAX_RECORD:
            return ScanResult(records, "impossible length", pos)
        body_start = pos + _HEADER.size
        if size - body_start < body_len:
            return ScanResult(records, "torn body", pos)
        body = data[body_start:body_start + body_len]
        if zlib.crc32(body) != crc:
            return ScanResult(records, "bad checksum", pos)
        try:
            records.append(_decode_body(body))
        except StorageError as exc:
            return ScanResult(records, f"bad body: {exc}", pos)
        pos = body_start + body_len
    return ScanResult(records, None, pos)
