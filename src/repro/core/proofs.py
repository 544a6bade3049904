"""Provenance-proof structures (Sections 6.2 and Appendix A).

A proof mirrors ``root_hash_list`` one item per committed structure, in
the exact order the list is hashed into ``Hstate``:

* :class:`MemProofItem` — a searched L0 MB-tree (full range proof);
* :class:`RunProofItem` — a searched on-disk run (value-file boundary
  entries + Merkle range proof + the bloom digest);
* :class:`RunNegativeItem` — a run skipped because its bloom filter
  excluded the address (the bloom bytes are the proof, footnote 1);
* :class:`StubItem` — a structure not searched (early stop, Algorithm 8
  lines 6-8 / 19-21): only its digest is shipped.

The verifier recomputes each item's digest, reassembles ``Hstate`` and
checks it against the block header.

:func:`encode_prov_answer` writes a PROV answer as a version byte and one
tagged value: ``None``, a signed int in its shortest form, bytes, a list,
a tuple, or a proof class with its fields in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, List, Optional, Tuple, Union

from repro.bloomfilter import BloomFilter, HashedItem, bits_contain
from repro.common.codec import U32, Cursor
from repro.common.errors import StorageError, VerificationError
from repro.common.hashing import Digest, hash_bytes, hash_concat
from repro.core.merklefile import MerkleRangeProof
from repro.mbtree.proof import MAX_PROOF_DEPTH, MBTreeProof, ProofHash, ProofInternal, ProofLeaf


@dataclass(frozen=True)
class MemProofItem:
    """Range proof over one searched L0 MB-tree."""

    proof: MBTreeProof

    def size_bytes(self) -> int:
        return self.proof.size_bytes()


@dataclass(frozen=True)
class RunProofItem:
    """A searched run: disclosed pairs + Merkle range proof + bloom digest."""

    entries: List[Tuple[int, bytes]]
    lo: int
    hi: int
    num_entries: int
    merkle_proof: MerkleRangeProof
    bloom_digest: Digest

    def commitment(self, merkle_root: Digest) -> Digest:
        """Reassemble the run's ``root_hash_list`` entry."""
        return hash_concat([merkle_root, self.bloom_digest])

    def size_bytes(self) -> int:
        entry_bytes = sum(48 + len(value) for _key, value in self.entries)
        return entry_bytes + self.merkle_proof.size_bytes() + 32


@dataclass(frozen=True)
class RunNegativeItem:
    """A run skipped via its bloom filter; the filter itself is disclosed."""

    bloom_bytes: bytes
    merkle_root: Digest

    def commitment(self, absent: Optional[HashedItem] = None) -> Digest:
        """The run's ``root_hash_list`` entry.  A filter's digest is the
        hash of its serialized form, so a well-formed ``bloom_bytes`` is
        hashed as it stands.

        With ``absent`` (an address's ``hash_item`` pair) the filter must
        also exclude that address — the reason the run was skipped —
        probed on the payload in place, under the same header parse.
        """
        num_bits, num_hashes, _count = BloomFilter.parse_header(self.bloom_bytes)
        if absent is not None and bits_contain(
            memoryview(self.bloom_bytes)[12:], num_bits, num_hashes, absent
        ):
            raise VerificationError(
                "run was skipped but its bloom filter contains the address"
            )
        return hash_concat([self.merkle_root, hash_bytes(self.bloom_bytes)])

    def size_bytes(self) -> int:
        return len(self.bloom_bytes) + 32


@dataclass(frozen=True)
class StubItem:
    """An unsearched structure: only its ``root_hash_list`` digest."""

    digest: Digest

    def size_bytes(self) -> int:
        return 32


ProofItem = Union[MemProofItem, RunProofItem, RunNegativeItem, StubItem]


@dataclass(frozen=True)
class ProvenanceProof:
    """The full proof: one item per ``root_hash_list`` entry, in order."""

    addr: bytes
    blk_low: int
    blk_high: int
    items: List[ProofItem] = field(default_factory=list)

    def size_bytes(self) -> int:
        """Total proof size (the metric of Figures 14 and 15)."""
        return sum(item.size_bytes() for item in self.items)


@dataclass(frozen=True)
class ProvenanceResult:
    """Query output: the address's versions within the block range.

    ``versions`` holds ``(blk, value)`` pairs with
    ``blk_low <= blk <= blk_high`` in ascending block order;
    ``boundary_version`` is the newest version *older* than ``blk_low``
    (the value that was current when the range began), if one exists.
    """

    versions: List[Tuple[int, bytes]]
    boundary_version: Optional[Tuple[int, bytes]]
    proof: ProvenanceProof


#: First byte of every encoded PROV answer; a decoder refuses any other.
PROOF_CODEC_VERSION = 1
_NONE, _INT, _BYTES, _LIST, _TUPLE = range(5)
#: The proof classes; class ``i`` is tag ``_TUPLE + 1 + i``.
_CLASSES = (ProvenanceResult, ProvenanceProof, MemProofItem, RunProofItem, RunNegativeItem,
            StubItem, MerkleRangeProof, MBTreeProof, ProofHash, ProofLeaf, ProofInternal)


def _int_size(value: int) -> int:
    """Bytes of ``value``'s shortest two's-complement form."""
    return ((value if value >= 0 else ~value).bit_length() + 8) // 8


def _encode(value: Any, out: List[bytes]) -> None:
    kind = type(value)
    if value is None:
        out.append(bytes([_NONE]))
    elif kind is int:
        size = _int_size(value)
        out += (bytes([_INT, size]), value.to_bytes(size, "big", signed=True))
    elif kind is bytes:
        out += (bytes([_BYTES]), U32.pack(len(value)), value)
    elif kind is list or kind is tuple:
        out += (bytes([_LIST if kind is list else _TUPLE]), U32.pack(len(value)))
        for item in value:
            _encode(item, out)
    else:
        out.append(bytes([_TUPLE + 1 + _CLASSES.index(kind)]))
        for spec in fields(value):
            _encode(getattr(value, spec.name), out)


def _decode(cursor: Cursor, depth: int) -> Any:
    if depth > MAX_PROOF_DEPTH:
        raise StorageError(f"proof nests deeper than {MAX_PROOF_DEPTH}")
    tag = cursor.u8()
    if tag == _NONE:
        return None
    if tag == _INT:
        raw = cursor.take(cursor.u8())
        value = int.from_bytes(raw, "big", signed=True)
        if len(raw) != _int_size(value):
            raise StorageError("proof int is not in its shortest form")
        return value
    if tag == _BYTES:
        return cursor.bytes32()
    if tag == _LIST or tag == _TUPLE:
        count = cursor.u32()
        if tag == _TUPLE and count != 2:  # every tuple a proof holds is a pair
            raise StorageError(f"proof tuple of {count} is not a pair")
        if count > len(cursor.data) - cursor.pos:  # every value takes a byte
            raise StorageError(f"proof list of {count} exceeds the bytes left")
        items = []
        for _ in range(count):
            item = _decode(cursor, depth + 1)
            if item is None and tag == _LIST:  # no proof list holds one
                raise StorageError("proof list holds a None")
            items.append(item)
        return items if tag == _LIST else tuple(items)
    if _TUPLE < tag <= _TUPLE + len(_CLASSES):
        cls = _CLASSES[tag - _TUPLE - 1]
        return cls(*[_decode(cursor, depth + 1) for _ in fields(cls)])
    raise StorageError(f"unknown proof tag {tag}")


def encode_prov_answer(result: ProvenanceResult, root: Digest) -> bytes:
    """The PROV answer blob of ``(result, root)``."""
    out = [bytes([PROOF_CODEC_VERSION])]
    _encode((result, root), out)
    return b"".join(out)


def decode_prov_answer(blob: bytes) -> Tuple[ProvenanceResult, Digest]:
    """``(ProvenanceResult, root)`` from an :func:`encode_prov_answer`
    blob, read as hostile: anything else raises ``StorageError``.  The
    proof inside is :func:`~repro.core.verify.verify_provenance`'s to check."""
    cursor = Cursor(blob)
    version = cursor.u8()
    if version != PROOF_CODEC_VERSION:
        raise StorageError(f"proof codec version {version} is not {PROOF_CODEC_VERSION}")
    answer = _decode(cursor, 0)
    if not cursor.done():
        raise StorageError(f"{len(blob) - cursor.pos} trailing bytes after the proof")
    if not (
        type(answer) is tuple
        and len(answer) == 2
        and type(answer[0]) is ProvenanceResult
        and type(answer[1]) is bytes
        and len(answer[1]) == 32
    ):
        raise StorageError("PROV blob is not a (ProvenanceResult, 32-byte root) pair")
    return answer
