"""Fixed-width binary codecs.

Every on-disk structure in the reproduction is built from a handful of
primitives: unsigned 32/64-bit integers, big-endian arbitrary-width
integers (addresses, compound keys) and IEEE-754 doubles (learned-model
slopes and intercepts).  Centralizing them keeps file formats consistent
and makes the byte-level tests easy to write.
"""

from __future__ import annotations

import struct
from typing import Optional

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")

U64_MAX = 2**64 - 1


def encode_u32(value: int) -> bytes:
    """Encode ``value`` as a big-endian unsigned 32-bit integer."""
    return _U32.pack(value)


def decode_u32(data: bytes, offset: int = 0) -> int:
    """Decode a big-endian unsigned 32-bit integer at ``offset``."""
    return _U32.unpack_from(data, offset)[0]


def encode_u64(value: int) -> bytes:
    """Encode ``value`` as a big-endian unsigned 64-bit integer."""
    return _U64.pack(value)


def decode_u64(data: bytes, offset: int = 0) -> int:
    """Decode a big-endian unsigned 64-bit integer at ``offset``."""
    return _U64.unpack_from(data, offset)[0]


def pack_float(value: float) -> bytes:
    """Encode ``value`` as a big-endian IEEE-754 double."""
    return _F64.pack(value)


def unpack_float(data: bytes, offset: int = 0) -> float:
    """Decode a big-endian IEEE-754 double at ``offset``."""
    return _F64.unpack_from(data, offset)[0]


def int_to_bytes(value: int, width: int) -> bytes:
    """Encode a non-negative integer as ``width`` big-endian bytes."""
    return value.to_bytes(width, "big")


def int_from_bytes(data: bytes) -> int:
    """Decode a big-endian unsigned integer of any width."""
    return int.from_bytes(data, "big")


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
