"""Compound keys ``K = <addr, blk>`` (Section 3.2).

The column-based design indexes every historical version of a state under
a compound key: the state address concatenated with the block height at
which that version was written.  For the learned models the key is viewed
as one big integer, ``binary(addr) * 2**64 + blk``, so all versions of an
address are numerically adjacent and sorted by block height.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.codec import int_from_bytes, int_to_bytes

#: Block heights are 64-bit; this sentinel makes ``<addr, MAX_BLK>`` the
#: largest compound key of an address, so a floor search returns the
#: address's latest version (Algorithm 6 line 2).
MAX_BLK = 2**64 - 1


def compound_key(addr: bytes, blk: int) -> int:
    """The big-integer key of ``<addr, blk>``: ``binary(addr) * 2**64 + blk``.

    The one place the formula lives — every put, lookup and scan bound
    goes through it.  ``blk`` must already be in ``[0, MAX_BLK]``
    (:func:`check_blk`); callers validate once per batch, not per key.
    """
    return int.from_bytes(addr, "big") << 64 | blk


def check_blk(blk: int) -> None:
    """Raise ``ValueError`` unless ``blk`` is a 64-bit block height."""
    if not 0 <= blk <= MAX_BLK:
        raise ValueError(f"block height out of range: {blk}")


@dataclass(frozen=True, order=True)
class CompoundKey:
    """An address paired with the block height of one of its versions."""

    addr: bytes
    blk: int

    def __post_init__(self) -> None:
        check_blk(self.blk)

    def to_int(self) -> int:
        """Big-integer form used by the learned models."""
        return compound_key(self.addr, self.blk)

    def to_bytes(self) -> bytes:
        """Fixed-width binary form ``addr || blk`` used on disk."""
        return self.addr + int_to_bytes(self.blk, 8)

    @classmethod
    def from_int(cls, key: int, addr_size: int) -> "CompoundKey":
        """Inverse of :meth:`to_int` for a known address width."""
        blk = key & MAX_BLK
        addr = int_to_bytes(key >> 64, addr_size)
        return cls(addr=addr, blk=blk)

    @classmethod
    def from_bytes(cls, data: bytes, addr_size: int) -> "CompoundKey":
        """Inverse of :meth:`to_bytes`."""
        if len(data) != addr_size + 8:
            raise ValueError("compound key has wrong width")
        return cls(addr=data[:addr_size], blk=int_from_bytes(data[addr_size:]))

    @classmethod
    def latest_of(cls, addr: bytes) -> "CompoundKey":
        """The search sentinel ``<addr, max_int>`` for latest-value gets."""
        return cls(addr=addr, blk=MAX_BLK)


def addr_of_int(key: int, addr_size: int) -> bytes:
    """Extract the address bytes from a big-integer compound key."""
    return int_to_bytes(key >> 64, addr_size)


def blk_of_int(key: int) -> int:
    """Extract the block height from a big-integer compound key."""
    return key & MAX_BLK
