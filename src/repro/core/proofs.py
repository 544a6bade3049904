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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.bloomfilter import BloomFilter, HashedItem, bits_contain
from repro.common.errors import VerificationError
from repro.common.hashing import Digest, hash_bytes, hash_concat
from repro.core.merklefile import MerkleRangeProof
from repro.mbtree.proof import MBTreeProof


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
