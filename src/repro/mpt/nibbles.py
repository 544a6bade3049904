"""Nibble-path helpers for the Patricia trie.

Keys are fixed-size byte strings; the trie branches on 4-bit nibbles
(hexadecimal base, as in Ethereum).
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import StorageError

Nibbles = Tuple[int, ...]


def bytes_to_nibbles(data: bytes) -> Nibbles:
    """Split each byte into (high, low) nibbles."""
    out = []
    for byte in data:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return tuple(out)


def nibbles_to_bytes(nibbles: Nibbles) -> bytes:
    """Inverse of :func:`bytes_to_nibbles` (even length required)."""
    if len(nibbles) % 2:
        raise ValueError("odd nibble path cannot round-trip to bytes")
    return bytes(
        (nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2)
    )


def pack_nibbles(nibbles: Nibbles) -> bytes:
    """Length-prefixed packed encoding usable for odd-length paths."""
    padded = nibbles + (0,) if len(nibbles) % 2 else nibbles
    body = nibbles_to_bytes(padded)
    return bytes([len(nibbles) & 0xFF, len(nibbles) >> 8]) + body


def unpack_nibbles(data: bytes) -> Tuple[Nibbles, int]:
    """Decode :func:`pack_nibbles`; returns (nibbles, bytes consumed).  A
    path cut short raises ``StorageError``."""
    length = int.from_bytes(data[:2], "little")  # a cut header: end > len(data)
    end = 2 + (length + 1) // 2
    if end > len(data):
        raise StorageError(f"nibble path truncated: {end} bytes needed, {len(data)} present")
    return bytes_to_nibbles(data[2:end])[:length], end


def common_prefix_len(a: Nibbles, b: Nibbles) -> int:
    """Length of the longest common prefix of two nibble paths."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i
    return limit
