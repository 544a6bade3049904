"""A classic double-hashing bloom filter.

Double hashing (Kirsch & Mitzenmacher) derives the k probe positions from
two independent halves of a single SHA-256 digest, so membership is
deterministic across processes — required because blockchain nodes must
agree on the filter bytes that are hashed into the state root.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, Tuple, Union

from repro.common.errors import StorageError
from repro.common.hashing import Digest, hash_bytes

#: ``(h1, h2)``: the two halves of an item's SHA-256 that every filter's
#: probe positions ``(h1 + i * h2) % num_bits`` derive from.
HashedItem = Tuple[int, int]

#: The 12-byte header of :meth:`BloomFilter.to_bytes`: bit count, hash
#: count and item count, big-endian ``u32`` each.
_HEADER = struct.Struct(">III")
#: Turns flag bytes 0/1 into the ASCII digits ``int(_, 2)`` reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
#: Filter bits one step of :meth:`BloomFilter._pack` converts (a multiple
#: of 8): its two copies of the step's flags stay under one 4 KB page
#: whatever the filter's size.
_PACK_BITS = 1024


def hash_item(item: bytes) -> HashedItem:
    """Hash ``item`` once for any number of filter probes."""
    digest = hashlib.sha256(item).digest()  # h2 odd => full cycle
    return int.from_bytes(digest[:16], "big"), int.from_bytes(digest[16:], "big") | 1


def bits_contain(bits, num_bits: int, num_hashes: int, item: HashedItem) -> bool:
    """The probe of :meth:`BloomFilter.__contains__` over any indexable
    bit array — a filter's own, or a serialized filter's payload probed
    in place: the stepping loop of :meth:`BloomFilter.add`, stopping at
    the first clear bit."""
    h1, h2 = item
    position = h1 % num_bits
    step = h2 % num_bits
    for _ in range(num_hashes):
        if not bits[position >> 3] & (1 << (position & 7)):
            return False
        position += step
        if position >= num_bits:
            position -= num_bits
    return True


class BloomFilter:
    """Fixed-size bloom filter over byte-string items (state addresses)."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        """Create an empty filter with ``num_bits`` bits and ``num_hashes`` probes."""
        if num_bits < 8:
            num_bits = 8
        if num_hashes < 1:
            raise StorageError("bloom filter needs at least one hash function")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        # One byte per bit, set by adds and not yet packed into _bits.
        self._flags: bytearray | None = None
        self._count = 0
        self._cached_bytes: bytes | None = None
        self._cached_digest: Digest | None = None

    @classmethod
    def for_capacity(cls, capacity: int, bits_per_key: int, num_hashes: int) -> "BloomFilter":
        """Size a filter for ``capacity`` expected keys at ``bits_per_key``."""
        return cls(max(8, capacity * bits_per_key), num_hashes)

    # -- membership ----------------------------------------------------------

    def add(self, items: Iterable[bytes]) -> None:
        """Insert every item (the run builder adds a page of addresses a
        call).

        ``count`` advances once per item, but an item equal to the one
        before it — the versions of one address are adjacent in a sorted
        run — is not re-hashed.  Probe ``i`` is ``(h1 + i * h2) % m`` for
        :func:`hash_item`'s pair, reached by stepping ``h2 % m`` at a time.
        A probe sets one flag byte per filter bit; the flags are packed
        into the bit array once, by the first membership check or
        serialization after the adds, not once per call.
        """
        flags = self._flags
        if flags is None:
            flags = self._flags = bytearray(self.num_bits)
        num_bits = self.num_bits
        probes = range(self.num_hashes)
        sha256 = hashlib.sha256
        from_bytes = int.from_bytes
        count = 0
        previous = None
        for item in items:
            count += 1
            if item == previous:
                continue
            previous = item
            digest = sha256(item).digest()
            position = from_bytes(digest[:16], "big") % num_bits
            step = (from_bytes(digest[16:], "big") | 1) % num_bits
            for _ in probes:
                flags[position] = 1
                position += step
                if position >= num_bits:
                    position -= num_bits
        self._count += count
        self._cached_bytes = self._cached_digest = None

    def _pack(self) -> None:
        """OR the pending flags into the bit array: bit ``p`` is bit
        ``p & 7`` of byte ``p >> 3``, so ``_PACK_BITS`` flags reversed and
        read as a binary numeral are their bytes, little-endian."""
        flags, bits = self._flags, self._bits
        self._flags = None
        for start in range(0, self.num_bits, _PACK_BITS):
            chunk = flags[start : start + _PACK_BITS]
            lo, hi = start >> 3, (start + len(chunk) + 7) >> 3
            chunk.reverse()
            packed = int(chunk.translate(_DIGITS), 2)
            packed |= int.from_bytes(bits[lo:hi], "little")
            bits[lo:hi] = packed.to_bytes(hi - lo, "little")

    def __contains__(self, item: Union[bytes, HashedItem]) -> bool:
        """Membership of a raw item or of its :func:`hash_item` pair (a
        lookup hashes its address once for every run's filter)."""
        if self._flags is not None:
            self._pack()
        return bits_contain(
            self._bits,
            self.num_bits,
            self.num_hashes,
            item if type(item) is tuple else hash_item(item),
        )

    def may_contain(self, item: Union[bytes, HashedItem]) -> bool:
        """True if ``item`` may be present (false positives possible)."""
        return item in self

    # -- statistics ----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of items added so far."""
        return self._count

    def false_positive_rate(self) -> float:
        """Theoretical false-positive probability at the current load."""
        if self._count == 0:
            return 0.0
        k, n, m = self.num_hashes, self._count, self.num_bits
        return (1.0 - math.exp(-k * n / m)) ** k

    # -- serialization (part of provenance proofs) ----------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a stable byte string (used in proofs and digests).

        Cached between mutations, like :meth:`digest`: a finished run's
        filter is disclosed whole by every provenance query that skips it.
        """
        if self._cached_bytes is None:
            if self._flags is not None:
                self._pack()
            header = _HEADER.pack(self.num_bits, self.num_hashes, self._count)
            self._cached_bytes = header + bytes(self._bits)
        return self._cached_bytes

    @staticmethod
    def parse_header(data: bytes) -> Tuple[int, int, int]:
        """``(num_bits, num_hashes, count)`` of a :meth:`to_bytes` string.

        Filter bytes arrive in proofs from an untrusted server: the header
        must describe exactly its payload, as :meth:`to_bytes` writes it,
        before anything is allocated from it or hashed as the digest.  A
        probe costs ``num_hashes`` steps, so more hashes than bits (none
        of which a real filter has) are refused too.
        """
        if len(data) < 12:
            raise StorageError("truncated bloom filter")
        num_bits, num_hashes, count = _HEADER.unpack_from(data)
        if num_bits < 8 or not 1 <= num_hashes <= num_bits:
            raise StorageError("bloom filter header is not one to_bytes writes")
        if len(data) - 12 != (num_bits + 7) // 8:
            raise StorageError("bloom filter payload size mismatch")
        return num_bits, num_hashes, count

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Reconstruct a filter serialized by :meth:`to_bytes`."""
        num_bits, num_hashes, count = cls.parse_header(data)
        bloom = cls(num_bits, num_hashes)
        bloom._bits = bytearray(data[12:])
        bloom._count = count
        return bloom

    def digest(self) -> Digest:
        """Digest of the serialized filter (folded into the state root, §4).

        Cached between mutations: runs are immutable once built, and the
        digest is recomputed into ``Hstate`` at every block commit.
        """
        if self._cached_digest is None:
            self._cached_digest = hash_bytes(self.to_bytes())
        return self._cached_digest

    def size_bytes(self) -> int:
        """Serialized size in bytes (counted in storage accounting)."""
        return 12 + len(self._bits)
