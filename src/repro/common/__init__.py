"""Shared low-level utilities: hashing, codecs, parameters, errors.

Everything in this package is dependency-free and used by every other
subsystem in the reproduction.
"""

from repro.common.errors import (
    ReproError,
    StorageError,
    IntegrityError,
    VerificationError,
)
from repro.common.hashing import (
    DIGEST_SIZE,
    EMPTY_DIGEST,
    Digest,
    hash_bytes,
    hash_concat,
)
from repro.common.gate import CommitGate
from repro.common.params import ColeParams, SystemParams
from repro.common.codec import (
    decode_u32,
    decode_u64,
    encode_u32,
    encode_u64,
    int_to_bytes,
    pack_float,
)

__all__ = [
    "ReproError",
    "StorageError",
    "IntegrityError",
    "VerificationError",
    "DIGEST_SIZE",
    "EMPTY_DIGEST",
    "Digest",
    "hash_bytes",
    "hash_concat",
    "ColeParams",
    "CommitGate",
    "SystemParams",
    "encode_u32",
    "decode_u32",
    "encode_u64",
    "decode_u64",
    "int_to_bytes",
    "pack_float",
]
