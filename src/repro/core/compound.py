"""Compound keys ``K = <addr, blk>`` (Section 3.2).

The column-based design indexes every historical version of a state under
a compound key: the state address concatenated with the block height at
which that version was written.  For the learned models the key is viewed
as one big integer, ``binary(addr) * 2**64 + blk``, so all versions of an
address are numerically adjacent and sorted by block height.
"""

from __future__ import annotations

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


def blk_of_int(key: int) -> int:
    """Extract the block height from a big-integer compound key."""
    return key & MAX_BLK
