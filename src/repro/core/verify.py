"""Client-side verification of provenance results (Section 6.2).

The verifier holds only the block header's state digest ``Hstate`` and the
query parameters.  It (1) reconstructs every ``root_hash_list`` entry from
the proof items, (2) recomputes ``Hstate`` and compares, (3) re-derives
the result set from the *disclosed* data — never trusting the server's
result list — and (4) checks completeness: every searched structure
discloses boundary entries straddling the query range, skipped runs prove
the address is absent via their bloom filter, and structures stubbed by
the early stop are only acceptable when an older-than-range version was
already disclosed (Algorithm 8 lines 6-8 / 19-21).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bloomfilter import hash_item
from repro.common.errors import VerificationError
from repro.common.hashing import Digest, hash_concat
from repro.core.compound import MAX_BLK
from repro.core.merklefile import fold_range_proof
from repro.core.proofs import (
    MemProofItem,
    ProvenanceResult,
    RunNegativeItem,
    RunProofItem,
    StubItem,
)
from repro.mbtree.proof import verify_range_proof as verify_mbtree_range


#: What the walk raises on a result not built as a proof is — a decoded
#: field of another type or an ``int`` no key encoding holds; in process,
#: also a field missing.
_WRONG_SHAPE = (AttributeError, TypeError, ValueError, OverflowError)


def verify_provenance(
    result: ProvenanceResult,
    expected_state_root: Digest,
    addr_size: int = 32,
    key_width: Optional[int] = None,
) -> List[Tuple[int, bytes]]:
    """VerifyProv of Section 2: authenticate a provenance query result.

    Returns the verified version list ``[(blk, value), ...]`` (ascending,
    within the query range).  Raises :class:`VerificationError` if any
    check fails, and also when ``result`` is not built as a proof is
    (see :data:`_WRONG_SHAPE`).  ``key_width`` defaults to
    ``addr_size + 8``.
    """
    key_width = key_width if key_width is not None else addr_size + 8
    try:
        return _verify(result, expected_state_root, key_width)
    except _WRONG_SHAPE as exc:
        raise VerificationError(
            f"proof of the wrong shape: {type(exc).__name__}: {exc}"
        ) from exc


def _verify(
    result: ProvenanceResult, expected_state_root: Digest, key_width: int
) -> List[Tuple[int, bytes]]:
    proof = result.proof
    addr_int = int.from_bytes(proof.addr, "big")
    key_low = addr_int * 2**64 + proof.blk_low - 1
    key_high = addr_int * 2**64 + min(proof.blk_high + 1, MAX_BLK)
    hashed = hash_item(proof.addr)  # once, for every disclosed filter

    digests: List[Digest] = []
    disclosed: Dict[int, bytes] = {}
    saw_older = False
    saw_stub_after_search = False
    searched_any = False

    for item in proof.items:
        if isinstance(item, StubItem):
            if searched_any:
                saw_stub_after_search = True
            digests.append(item.digest)
            continue
        searched_any = True
        if isinstance(item, MemProofItem):
            mem_root = _mem_root(item, key_width)
            entries = verify_mbtree_range(item.proof, mem_root, key_width)
            _check_mbtree_window(item, key_low, key_high)
            digests.append(mem_root)
        elif isinstance(item, RunProofItem):
            entries = _verify_run_item(item, key_low, key_high, key_width)
            merkle_root = _reconstruct_merkle_root(item, key_width)
            digests.append(item.commitment(merkle_root))
        elif isinstance(item, RunNegativeItem):
            digests.append(item.commitment(absent=hashed))
            continue
        else:  # pragma: no cover - exhaustive match
            raise VerificationError(f"unknown proof item {type(item).__name__}")
        for entry_key, value in entries:
            if entry_key >> 64 != addr_int:
                continue
            blk = entry_key & MAX_BLK
            if blk > proof.blk_high:
                continue
            disclosed.setdefault(blk, value)
            if blk < proof.blk_low:
                saw_older = True

    reconstructed = hash_concat(digests)
    if reconstructed != expected_state_root:
        raise VerificationError("reconstructed Hstate does not match the header")

    if saw_stub_after_search and not saw_older:
        raise VerificationError(
            "structures were skipped without disclosing a pre-range version"
        )

    versions = sorted(
        (blk, value) for blk, value in disclosed.items() if blk >= proof.blk_low
    )
    if versions != result.versions:
        raise VerificationError("result versions do not match the disclosed data")
    older = [(blk, value) for blk, value in disclosed.items() if blk < proof.blk_low]
    boundary = max(older) if older else None
    if boundary != result.boundary_version:
        raise VerificationError("boundary version does not match the disclosed data")
    return versions


def _mem_root(item: MemProofItem, key_width: int) -> Digest:
    """Recompute the MB-tree root committed by a memory-level proof item."""
    from repro.mbtree.proof import _compute_digest  # shared digest walk

    return _compute_digest(item.proof.root, key_width)


def _check_mbtree_window(item: MemProofItem, key_low: int, key_high: int) -> None:
    """The MB-tree proof's own low/high must cover the query window."""
    if item.proof.low > key_low or item.proof.high < key_high:
        raise VerificationError("MB-tree proof window does not cover the query range")


def _verify_run_item(
    item: RunProofItem, key_low: int, key_high: int, key_width: int
) -> List[Tuple[int, bytes]]:
    """Boundary/completeness checks for one searched run (step 4 of §6.2)."""
    if not item.entries:
        raise VerificationError("searched run disclosed no entries")
    if len(item.entries) != item.hi - item.lo + 1:
        raise VerificationError("run proof entry count mismatch")
    keys = [key for key, _value in item.entries]
    if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
        raise VerificationError("run proof discloses out-of-order entries")
    if keys[0] > key_low and item.lo != 0:
        raise VerificationError("run proof does not prove the lower boundary")
    if keys[-1] <= key_high and item.hi != item.num_entries - 1:
        raise VerificationError("run proof does not prove the upper boundary")
    return item.entries


def _reconstruct_merkle_root(item: RunProofItem, key_width: int) -> Digest:
    """Recompute the run's Merkle root from the disclosed entries.

    The fold checks the proof's shape; whether the root is the committed
    one is decided by ``Hstate``, which it is hashed into.
    """
    proof = item.merkle_proof
    if proof.lo != item.lo or proof.hi != item.hi:
        raise VerificationError("Merkle proof range mismatch")
    if proof.num_leaves != item.num_entries:
        raise VerificationError("Merkle proof leaf count mismatch")
    return fold_range_proof(item.entries, proof, key_width)
