"""MB-tree range proofs and their verification.

A proof is a pruned copy of the tree: subtrees off the query path are
replaced by their digests (:class:`ProofHash`), visited leaves appear in
full (:class:`ProofLeaf`).  The verifier recomputes the root digest from
this subtree — by collision resistance of SHA-256, matching the published
root authenticates both the returned entries and their completeness
(pruned subtrees cannot hide entries inside the query range because the
query path covers every child whose separator interval intersects it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from repro.common.errors import VerificationError
from repro.common.hashing import Digest
from repro.mbtree.node import internal_digest, leaf_digest


@dataclass(frozen=True)
class ProofHash:
    """A pruned subtree, represented only by its digest."""

    digest: Digest


@dataclass(frozen=True)
class ProofLeaf:
    """A fully disclosed leaf."""

    keys: List[int]
    values: List[bytes]


@dataclass(frozen=True)
class ProofInternal:
    """An internal node on the query path."""

    keys: List[int]
    children: List["ProofNode"]


ProofNode = Union[ProofHash, ProofLeaf, ProofInternal]


@dataclass(frozen=True)
class MBTreeProof:
    """Range proof for ``[low, high]`` (with floor extension on the left)."""

    root: ProofNode
    low: int
    high: int

    def size_bytes(self) -> int:
        """Approximate wire size of the proof in bytes."""
        return _node_size(self.root)


def _node_size(node: ProofNode) -> int:
    if isinstance(node, ProofHash):
        return 32
    if isinstance(node, ProofLeaf):
        return sum(40 + len(value) for value in node.values)
    size = 40 * len(node.keys)
    return size + sum(_node_size(child) for child in node.children)


def _compute_digest(node: ProofNode, key_width: int) -> Digest:
    if isinstance(node, ProofHash):
        return node.digest
    if isinstance(node, ProofLeaf):
        return leaf_digest(node.keys, node.values, key_width)
    child_digests = [_compute_digest(child, key_width) for child in node.children]
    return internal_digest(node.keys, child_digests, key_width)


def _collect_entries(node: ProofNode, out: List[Tuple[int, bytes]]) -> None:
    if isinstance(node, ProofLeaf):
        out.extend(zip(node.keys, node.values))
    elif isinstance(node, ProofInternal):
        for child in node.children:
            _collect_entries(child, out)


def verify_range_proof(
    proof: MBTreeProof,
    expected_root: Digest,
    key_width: int = 40,
) -> List[Tuple[int, bytes]]:
    """Verify ``proof`` against ``expected_root`` and return the entries.

    Returns every disclosed entry with ``key <= proof.high`` (including the
    floor entry below ``proof.low``, which callers need for provenance
    semantics).  Raises :class:`VerificationError` on any mismatch.
    """
    recomputed = _compute_digest(proof.root, key_width)
    if recomputed != expected_root:
        raise VerificationError("MB-tree proof does not match the root digest")
    disclosed: List[Tuple[int, bytes]] = []
    _collect_entries(proof.root, disclosed)
    if any(disclosed[i][0] >= disclosed[i + 1][0] for i in range(len(disclosed) - 1)):
        raise VerificationError("MB-tree proof discloses out-of-order entries")
    return [(key, value) for key, value in disclosed if key <= proof.high]
