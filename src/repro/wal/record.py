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

from repro.common.errors import StorageError

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_HEADER = struct.Struct(">II")  # crc32, body_len

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
    parts = [bytes([RecordType.PUTS]), _U64.pack(height), _U32.pack(len(items))]
    for addr, value in items:
        parts.append(_U16.pack(len(addr)))
        parts.append(addr)
        parts.append(_U32.pack(len(value)))
        parts.append(value)
    return _seal(b"".join(parts))


def encode_commit(height: int, root: bytes) -> bytes:
    """Encode an engine-commit marker for block ``height``."""
    body = (
        bytes([RecordType.COMMIT])
        + _U64.pack(height)
        + _U16.pack(len(root))
        + root
    )
    return _seal(body)


def _seal(body: bytes) -> bytes:
    if len(body) > MAX_RECORD:
        raise StorageError("WAL record exceeds MAX_RECORD")
    return _HEADER.pack(zlib.crc32(body), len(body)) + body


def _decode_body(body: bytes) -> WalRecord:
    """Decode a checksum-verified body; raises StorageError on bad shape."""
    if len(body) < 9:
        raise StorageError("WAL body shorter than its fixed header")
    rtype = body[0]
    (height,) = _U64.unpack_from(body, 1)
    pos = 9
    if rtype == RecordType.PUTS:
        if len(body) < pos + 4:
            raise StorageError("truncated PUTS count")
        (count,) = _U32.unpack_from(body, pos)
        pos += 4
        items = []
        for _ in range(count):
            if len(body) < pos + 2:
                raise StorageError("truncated PUTS address length")
            (alen,) = _U16.unpack_from(body, pos)
            pos += 2
            addr = body[pos:pos + alen]
            pos += alen
            if len(addr) != alen or len(body) < pos + 4:
                raise StorageError("truncated PUTS address or value length")
            (vlen,) = _U32.unpack_from(body, pos)
            pos += 4
            value = body[pos:pos + vlen]
            pos += vlen
            if len(value) != vlen:
                raise StorageError("truncated PUTS value")
            items.append((addr, value))
        if pos != len(body):
            raise StorageError("trailing bytes after PUTS payload")
        return WalRecord(type=rtype, height=height, items=tuple(items))
    if rtype == RecordType.COMMIT:
        if len(body) < pos + 2:
            raise StorageError("truncated COMMIT digest length")
        (dlen,) = _U16.unpack_from(body, pos)
        pos += 2
        root = body[pos:pos + dlen]
        if len(root) != dlen or pos + dlen != len(body):
            raise StorageError("truncated COMMIT digest")
        return WalRecord(type=rtype, height=height, root=root)
    raise StorageError(f"unknown WAL record type {rtype}")


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
        crc, body_len = _HEADER.unpack_from(data, pos)
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
