"""The MPT baseline: Ethereum-style persistent trie storage (Section 1).

Every block's updates rewrite the trie path and persist the new nodes;
the per-block root is retained so any historical state can be traversed.
Provenance queries walk *every* block in the queried range (the linear
cost Figure 14 shows), returning one Merkle path per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chain.backend import StorageBackend
from repro.common.codec import encode_u64
from repro.common.errors import StorageError, VerificationError
from repro.common.hashing import Digest, EMPTY_DIGEST
from repro.diskio.iostats import IOStats
from repro.kvstore import LSMStore
from repro.mpt import MPTrie, MPTProof, verify_mpt_proof


@dataclass(frozen=True)
class MPTProvResult:
    """Provenance answer: one (block, value, Merkle path) per block."""

    addr: bytes
    blk_low: int
    blk_high: int
    versions: List[Tuple[int, bytes]]  # (blk, value) where the value changed
    proofs: List[Tuple[int, Digest, MPTProof]]  # (blk, root at blk, path)

    def proof_size_bytes(self) -> int:
        """Total proof size (Figure 14's metric)."""
        return sum(proof.size_bytes() + 40 for _blk, _root, proof in self.proofs)


class MPTStorage(StorageBackend):
    """Blockchain state storage indexed by a persistent MPT."""

    def __init__(
        self,
        directory: str,
        stats: Optional[IOStats] = None,
        memtable_capacity: int = 4096,
        page_size: int = 4096,
    ) -> None:
        self.store = LSMStore(
            directory,
            page_size=page_size,
            memtable_capacity=memtable_capacity,
            stats=stats,
            name="mpt",
        )
        self.trie = MPTrie(self.store, persistent=True)
        self.roots: Dict[int, Optional[Digest]] = {}
        self.current_blk = 0
        self._root: Optional[Digest] = None
        self.value_bytes_written = 0  # underlying data share (§1's 2.8% claim)

    # -- block lifecycle --------------------------------------------------------

    def begin_block(self, height: int) -> None:
        if height < self.current_blk:
            raise StorageError("block heights must be non-decreasing")
        self.current_blk = height

    def commit_block(self) -> Digest:
        """Persist the block's root (one KV entry per block, as Ethereum
        stores header->root); returns the state root digest."""
        self.roots[self.current_blk] = self._root
        self.store.put(b"r" + encode_u64(self.current_blk), self._root or b"")
        return self._root if self._root is not None else EMPTY_DIGEST

    # -- state access --------------------------------------------------------------

    def put(self, addr: bytes, value: bytes) -> None:
        self._root = self.trie.put(self._root, addr, value)
        self.value_bytes_written += len(value)

    def get(self, addr: bytes) -> Optional[bytes]:
        return self.trie.get(self._root, addr)

    def get_at(self, addr: bytes, blk: int) -> Optional[bytes]:
        """Historical lookup through the persisted root of block ``blk``."""
        root = self._root_at(blk)
        return self.trie.get(root, addr)

    def _root_at(self, blk: int) -> Optional[Digest]:
        if blk in self.roots:
            return self.roots[blk]
        candidates = [b for b in self.roots if b <= blk]
        if not candidates:
            return None
        return self.roots[max(candidates)]

    # -- provenance -------------------------------------------------------------------

    def prov_query(self, addr: bytes, blk_low: int, blk_high: int) -> MPTProvResult:
        """Walk each block in the range (the paper's linear-cost behaviour)."""
        versions: List[Tuple[int, bytes]] = []
        proofs: List[Tuple[int, Digest, MPTProof]] = []
        previous: Optional[bytes] = None
        for blk in range(blk_low, blk_high + 1):
            root = self._root_at(blk)
            if root is None:
                continue
            value, proof = self.trie.get_with_proof(root, addr)
            proofs.append((blk, root, proof))
            if value is not None and value != previous:
                versions.append((blk, value))
            previous = value
        return MPTProvResult(
            addr=addr,
            blk_low=blk_low,
            blk_high=blk_high,
            versions=versions,
            proofs=proofs,
        )

    @staticmethod
    def verify_prov(result: MPTProvResult, roots: Dict[int, Optional[Digest]]) -> None:
        """Client-side check of an :class:`MPTProvResult`.

        ``roots`` maps block height to the published state root (from the
        block headers the client already holds).
        """
        recomputed: List[Tuple[int, bytes]] = []
        previous: Optional[bytes] = None
        for blk, root, proof in result.proofs:
            expected = roots.get(blk)
            if expected != root:
                raise VerificationError(f"root mismatch at block {blk}")
            value = verify_mpt_proof(proof, root)
            if value is not None and value != previous:
                recomputed.append((blk, value))
            previous = value
        if recomputed != result.versions:
            raise VerificationError("MPT provenance versions do not verify")

    # -- accounting / lifecycle ----------------------------------------------------------

    def storage_bytes(self) -> int:
        self.store.flush()  # all data must reach disk before it is counted
        return self.store.storage_bytes()

    def close(self) -> None:
        self.store.close()
