"""Merkle files: the streaming m-ary complete MHT of one run (Section 4.2).

Algorithm 4 builds every MHT layer concurrently from the key-value stream,
using one group buffer per layer; the file is preallocated (the stream
size ``n`` is fixed by the run's level) and pages are filled at computed
offsets.  The layers are packed back to back, bottom-up, in one slot
space: hash ``i`` of layer ``L`` is slot ``layer_offsets(...)[L] + i``,
on page ``slot // hashes_per_page`` — the complete m-ary tree addressed
by position of Section 6.2.  A page may hold the tail of one layer and
the head of the next; the builder keeps such a page until both layers
have filled their slots on it, so each page is written exactly once.

The file also supports *range proofs* (Section 6.2): for value-file
positions ``[lo, hi]`` the proof carries, per layer, the sibling hashes of
the boundary groups; interior groups are recomputed by the verifier from
the disclosed entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Sequence, Tuple

from repro.common.errors import StorageError, VerificationError
from repro.common.hashing import DIGEST_SIZE, Digest, hash_bytes, hash_concat
from repro.diskio.pagefile import PagedFile


def layer_sizes(num_leaves: int, fanout: int) -> List[int]:
    """Node counts per MHT layer, bottom-up: ``[n, ceil(n/m), ..., 1]``."""
    if num_leaves < 1:
        raise StorageError("a Merkle file needs at least one leaf")
    sizes = [num_leaves]
    while sizes[-1] > 1:
        sizes.append(-(-sizes[-1] // fanout))
    return sizes


def layer_offsets(sizes: Sequence[int]) -> List[int]:
    """First slot of each layer in the packed file, bottom-up: the running
    sum of ``sizes``.  Hash ``i`` of layer ``L`` is slot ``offsets[L] + i``."""
    return list(accumulate(sizes[:-1], initial=0))


def leaf_hash(key: int, value: bytes, key_width: int) -> Digest:
    """Definition 2: ``h(K || value)`` with a fixed-width key encoding."""
    return hash_bytes(key.to_bytes(key_width, "big") + value)


class MerkleFileBuilder:
    """Algorithm 4: concurrent streaming construction of all layers."""

    def __init__(self, file: PagedFile, num_leaves: int, fanout: int) -> None:
        if fanout < 2:
            raise StorageError("MHT fanout must be >= 2")
        self._file = file
        self._fanout = fanout
        self._page_size = file.page_size
        per_page = self._hashes_per_page = self._page_size // DIGEST_SIZE
        self._page_bytes = per_page * DIGEST_SIZE  # hashes never straddle pages
        self.num_leaves = num_leaves
        self._sizes = layer_sizes(num_leaves, fanout)
        offsets = layer_offsets(self._sizes)
        self._num_slots = offsets[-1] + self._sizes[-1]
        file.preallocate(-(-self._num_slots // per_page))
        self._group_buffers: List[List[Digest]] = [[] for _ in self._sizes]
        #: Per layer: its hashes not yet written, buffered from the start of
        #: the page the first of them is on (zero-filled before the layer's
        #: first slot), that page's id, and the layer's first slot on it.
        self._page_buffers = [bytearray(offset % per_page * DIGEST_SIZE) for offset in offsets]
        self._buffer_pages = [offset // per_page for offset in offsets]
        self._buffer_starts = [offset % per_page for offset in offsets]
        #: page id -> [its bytes so far, its slots still empty], for a page
        #: that layers share until every one of them has filled its slots
        self._shared_pages: Dict[int, List[Any]] = {}
        self._added = 0
        self._root: Digest = b""

    # -- streaming interface ------------------------------------------------------

    def add(self, pairs: Sequence[bytes]) -> None:
        """Feed the next encoded pairs (``key.to_bytes(key_width) || value``
        — the bytes :func:`leaf_hash` hashes), in key order, a batch at a
        time."""
        self._added += len(pairs)
        if self._added > self.num_leaves:
            raise StorageError("Merkle file received more pairs than declared")
        sha256 = hashlib.sha256
        self._push(0, [sha256(pair).digest() for pair in pairs])

    def _push(self, layer: int, digests: List[Digest]) -> None:
        """Append ``digests`` to ``layer``; every group of ``fanout`` they
        complete becomes a parent pushed one layer up — the hash of the
        group joined, the bytes :func:`hash_concat` would feed it."""
        buffer = self._page_buffers[layer]
        buffer += b"".join(digests)
        while len(buffer) >= self._page_bytes:
            self._flush_layer_page(layer)
        group = self._group_buffers[layer]
        group += digests
        fanout = self._fanout
        full = len(group) - len(group) % fanout
        if full and layer + 1 < len(self._sizes):
            sha256, join = hashlib.sha256, b"".join
            parents = [
                sha256(join(group[start : start + fanout])).digest()
                for start in range(0, full, fanout)
            ]
            del group[:full]
            self._push(layer + 1, parents)

    def _flush_layer_page(self, layer: int) -> None:
        """Write the first page of the layer's buffered hashes; a page the
        layer shares with a neighbouring layer collects each layer's slots
        and is written once all of them are filled."""
        buffer = self._page_buffers[layer]
        chunk = bytes(buffer[: self._page_bytes])
        del buffer[: self._page_bytes]
        page_id, first = self._buffer_pages[layer], self._buffer_starts[layer]
        self._buffer_pages[layer] += 1
        self._buffer_starts[layer] = 0
        per_page = self._hashes_per_page
        slots = min(per_page, self._num_slots - page_id * per_page)
        filled = len(chunk) // DIGEST_SIZE - first
        if filled != slots:
            shared = self._shared_pages.setdefault(
                page_id, [bytearray(self._page_size), slots]
            )
            shared[0][first * DIGEST_SIZE : len(chunk)] = chunk[first * DIGEST_SIZE :]
            shared[1] -= filled
            if shared[1]:
                return
            del self._shared_pages[page_id]
            chunk = bytes(shared[0])
        self._file.write_page(page_id, chunk.ljust(self._page_size, b"\x00"))

    def finish(self) -> Digest:
        """Drain the remaining group buffers (Algorithm 4 lines 15-18)."""
        if self._added != self.num_leaves:
            raise StorageError(
                f"Merkle file expected {self.num_leaves} pairs, got {self._added}"
            )
        for layer in range(len(self._sizes) - 1):
            group = self._group_buffers[layer]
            if group:
                parent = hash_concat(group)
                group.clear()
                self._push(layer + 1, [parent])
        top_group = self._group_buffers[-1]  # a single leaf is its own root
        if len(top_group) != 1:
            raise StorageError("MHT top layer must hold exactly the root")
        self._root = top_group[0]
        for layer, buffer in enumerate(self._page_buffers):
            if len(buffer) > self._buffer_starts[layer] * DIGEST_SIZE:
                self._flush_layer_page(layer)
        self._file.flush()
        return self._root


@dataclass(frozen=True)
class MerkleRangeProof:
    """Authentication of the pairs at value-file positions ``[lo, hi]``.

    ``sibling_layers[i]`` holds the boundary-group sibling hashes at layer
    ``i`` as ``(left, right)`` lists; interior hashes are recomputed by the
    verifier from the disclosed entries.
    """

    lo: int
    hi: int
    num_leaves: int
    fanout: int
    sibling_layers: List[Tuple[List[Digest], List[Digest]]]

    def size_bytes(self) -> int:
        """Wire size: sibling digests plus the three header integers."""
        hashes = sum(len(left) + len(right) for left, right in self.sibling_layers)
        return hashes * DIGEST_SIZE + 24


class MerkleFile:
    """Read access to a finished Merkle file."""

    def __init__(self, file: PagedFile, num_leaves: int, fanout: int) -> None:
        self._file = file
        self.num_leaves = num_leaves
        self.fanout = fanout
        self._hashes_per_page = file.page_size // DIGEST_SIZE
        self._sizes = layer_sizes(num_leaves, fanout)
        self._offsets = layer_offsets(self._sizes)

    def hash_at(self, layer: int, index: int) -> Digest:
        """The ``index``-th hash of ``layer`` (one page read)."""
        if not 0 <= index < self._sizes[layer]:
            raise StorageError(f"hash index {index} out of range in layer {layer}")
        page_id, on_page = divmod(self._offsets[layer] + index, self._hashes_per_page)
        data = self._file.read_page(page_id)
        offset = on_page * DIGEST_SIZE
        return data[offset : offset + DIGEST_SIZE]

    def root(self) -> Digest:
        """The MHT root hash."""
        return self.hash_at(len(self._sizes) - 1, 0)

    def prove_range(self, lo: int, hi: int) -> MerkleRangeProof:
        """Range proof for leaf positions ``[lo, hi]`` (inclusive).

        A layer's siblings are the two ends of one contiguous span of
        hashes.  The walk visits slots in increasing order — a layer's left
        siblings, its right siblings, then the layer above, whose slots
        follow — so each page is read at most once per proof, also a page
        two layers share.
        """
        if not 0 <= lo <= hi < self.num_leaves:
            raise StorageError(f"bad proof range [{lo}, {hi}]")
        leaf_lo, leaf_hi = lo, hi
        fanout, per_page, read_page = self.fanout, self._hashes_per_page, self._file.read_page
        sibling_layers: List[Tuple[List[Digest], List[Digest]]] = []
        page, data = -1, b""  # the page last read and its bytes
        for first_slot, size in zip(self._offsets, self._sizes[:-1]):
            ends: List[List[Digest]] = [[], []]
            for hashes, start, stop in (
                (ends[0], lo - lo % fanout, lo),
                (ends[1], hi + 1, min(hi - hi % fanout + fanout, size)),
            ):
                for slot in range(first_slot + start, first_slot + stop):
                    if slot // per_page != page:
                        page = slot // per_page
                        data = read_page(page)
                    offset = (slot - page * per_page) * DIGEST_SIZE
                    hashes.append(data[offset : offset + DIGEST_SIZE])
            sibling_layers.append((ends[0], ends[1]))
            lo, hi = lo // fanout, hi // fanout
        return MerkleRangeProof(
            lo=leaf_lo,
            hi=leaf_hi,
            num_leaves=self.num_leaves,
            fanout=self.fanout,
            sibling_layers=sibling_layers,
        )


def fold_range_proof(
    entries: List[Tuple[int, bytes]], proof: MerkleRangeProof, key_width: int
) -> Digest:
    """The root committed to by ``entries`` at positions ``proof.lo..proof.hi``.

    Recomputes leaf hashes from the disclosed entries and splices in the
    sibling hashes layer by layer.  Every layer's siblings must complete
    exactly the boundary groups of the span below them, so a proof of the
    wrong shape raises :class:`VerificationError` instead of folding to
    some other root.
    """
    if not entries:
        raise VerificationError("empty Merkle range proof")
    if proof.fanout < 2:
        raise VerificationError("Merkle proof fanout below 2")
    if len(entries) != proof.hi - proof.lo + 1:
        raise VerificationError("Merkle proof entry count does not match range")
    sizes = layer_sizes(proof.num_leaves, proof.fanout)
    if len(proof.sibling_layers) != len(sizes) - 1:
        raise VerificationError("Merkle proof has wrong depth")
    digests = [leaf_hash(key, value, key_width) for key, value in entries]
    position = proof.lo
    for layer, (left, right) in enumerate(proof.sibling_layers):
        if position - len(left) != (position // proof.fanout) * proof.fanout:
            raise VerificationError("Merkle proof left siblings misaligned")
        span = list(left) + digests + list(right)
        span_start = position - len(left)
        expected_span_end = min(
            ((position + len(digests) - 1) // proof.fanout + 1) * proof.fanout,
            sizes[layer],
        )
        if span_start + len(span) != expected_span_end:
            raise VerificationError("Merkle proof right siblings misaligned")
        digests = [
            hash_concat(span[start : start + proof.fanout])
            for start in range(0, len(span), proof.fanout)
        ]
        position = span_start // proof.fanout
    if len(digests) != 1:
        raise VerificationError("Merkle proof did not fold to a single root")
    return digests[0]


def verify_range_proof(
    entries: List[Tuple[int, bytes]],
    proof: MerkleRangeProof,
    expected_root: Digest,
    key_width: int,
) -> None:
    """Check that ``entries`` occupy positions ``proof.lo..proof.hi``
    under ``expected_root``; raises :class:`VerificationError` if not."""
    if fold_range_proof(entries, proof, key_width) != expected_root:
        raise VerificationError("Merkle range proof does not match the root")

