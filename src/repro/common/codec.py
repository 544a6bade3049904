"""Binary codecs of every wire and disk format.

Every on-disk structure and frame is built from a handful of big-endian
primitives: unsigned integers, u16/u32-length-prefixed bytes,
arbitrary-width integers (addresses, compound keys) and IEEE-754 doubles
(learned-model slopes and intercepts).  :class:`Cursor` is the one
sequential decoder — wire frames, WAL records and REPX frames read
through it, and a short input raises ``StorageError`` — and
:func:`pack_items` the ``(addr, value)`` list MULTI_PUT and WAL ``PUTS``
share.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Tuple

from repro.common.errors import StorageError

U16 = struct.Struct(">H")
U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")


def encode_u32(value: int) -> bytes:
    """Encode ``value`` as a big-endian unsigned 32-bit integer."""
    return U32.pack(value)


def decode_u32(data: bytes, offset: int = 0) -> int:
    """Decode a big-endian unsigned 32-bit integer at ``offset``."""
    return U32.unpack_from(data, offset)[0]


def encode_u64(value: int) -> bytes:
    """Encode ``value`` as a big-endian unsigned 64-bit integer."""
    return U64.pack(value)


def decode_u64(data: bytes, offset: int = 0) -> int:
    """Decode a big-endian unsigned 64-bit integer at ``offset``."""
    return U64.unpack_from(data, offset)[0]


def pack_float(value: float) -> bytes:
    """Encode ``value`` as a big-endian IEEE-754 double."""
    return _F64.pack(value)


def int_to_bytes(value: int, width: int) -> bytes:
    """Encode a non-negative integer as ``width`` big-endian bytes."""
    return value.to_bytes(width, "big")


def clamp_key(key: int, width: int) -> Optional[int]:
    """``key`` as a ``width``-byte search key: ``None`` if negative (it
    precedes every stored key), capped at the largest encodable key (past
    the key space every floor is that key's floor)."""
    if key < 0:
        return None
    return min(key, (1 << 8 * width) - 1)


def floor_slot(data: bytes, count: int, stride: int, offset: int, key: bytes) -> int:
    """Largest of a page's ``count`` slots whose key is ``<= key``, or ``-1``.

    Records are ``stride`` bytes with a ``len(key)``-byte big-endian key
    ``offset`` bytes in.  Equal-width big-endian keys order as bytes
    exactly as they do as integers, so the search compares slices of the
    page as it lies and decodes nothing.
    """
    width = len(key)
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) >> 1
        start = mid * stride + offset
        if data[start : start + width] <= key:
            lo = mid + 1
        else:
            hi = mid
    return lo - 1


def pack_bytes16(data: bytes) -> bytes:
    """u16-length-prefixed bytes (addresses, digests)."""
    if len(data) > 0xFFFF:
        raise StorageError("bytes16 field exceeds 64 KiB")
    return U16.pack(len(data)) + data


def pack_bytes32(data: bytes) -> bytes:
    """u32-length-prefixed bytes (values, blobs)."""
    return U32.pack(len(data)) + data


def pack_items(items: Iterable[Tuple[bytes, bytes]]) -> bytes:
    """``(addr, value)`` pairs as ``bytes16 | bytes32`` each, with no
    count: each format that carries the list writes its own."""
    parts: List[bytes] = []
    try:
        for addr, value in items:
            parts += (U16.pack(len(addr)), addr, U32.pack(len(value)), value)
    except struct.error:
        raise StorageError("bytes16 field exceeds 64 KiB") from None
    return b"".join(parts)


class Cursor:
    """Sequential decoder over one byte string; a read past its end
    raises ``StorageError``."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        """The next ``count`` bytes."""
        end = self.pos + count
        if end > len(self.data):
            raise StorageError(f"truncated at byte {self.pos} of {len(self.data)}")
        piece = self.data[self.pos:end]
        self.pos = end
        return piece

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return U64.unpack(self.take(8))[0]

    def bytes16(self) -> bytes:
        return self.take(self.u16())

    def bytes32(self) -> bytes:
        return self.take(self.u32())

    def items(self, count: int) -> List[Tuple[bytes, bytes]]:
        """``count`` ``(addr, value)`` pairs in the :func:`pack_items` layout."""
        return [(self.bytes16(), self.bytes32()) for _ in range(count)]

    def rest(self) -> bytes:
        """Every byte not read yet."""
        piece = self.data[self.pos:]
        self.pos = len(self.data)
        return piece

    def done(self) -> bool:
        return self.pos == len(self.data)
