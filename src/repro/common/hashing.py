"""Cryptographic hashing used by every authenticated structure.

The paper uses SHA-256 (Definition 2).  All digests in the reproduction are
raw 32-byte strings; helpers here centralize concatenation conventions so
that the Merkle structures in different subsystems hash identically when
they should.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

#: Size in bytes of every digest in the system.
DIGEST_SIZE = 32

#: Alias used in type hints throughout the code base.
Digest = bytes

#: Digest of the empty string; used as the root of empty structures.
EMPTY_DIGEST = hashlib.sha256(b"").digest()


def hash_bytes(data: bytes) -> Digest:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def hash_pair(left: Digest, right: Digest) -> Digest:
    """Return ``h(left || right)`` — the binary Merkle internal-node rule."""
    return hashlib.sha256(left + right).digest()


def hash_concat(parts: Iterable[bytes]) -> Digest:
    """Return the digest of the concatenation of ``parts``.

    Used for m-ary Merkle nodes (``h(h1 || h2 || ... || hm)``) and for the
    ``root_hash_list`` digest that becomes ``Hstate`` in the block header.
    The parts are joined and hashed in one call, not fed one at a time.
    """
    return hashlib.sha256(b"".join(parts)).digest()
