"""Merkle files: the streaming m-ary complete MHT of one run (Section 4.2).

Algorithm 4 builds every MHT layer concurrently from the key-value stream,
using one group buffer per layer; the file is preallocated (the stream
size ``n`` is fixed by the run's level) and pages are filled at computed
offsets.  Every layer starts on a page boundary so a layer's hash ``i``
lives at page ``layer_page + i // hashes_per_page`` — the reproduction's
version of the parent-position formula of Section 6.2.

The file also supports *range proofs* (Section 6.2): for value-file
positions ``[lo, hi]`` the proof carries, per layer, the sibling hashes of
the boundary groups; interior groups are recomputed by the verifier from
the disclosed entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

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
        self._hashes_per_page = self._page_size // DIGEST_SIZE
        self._page_bytes = self._hashes_per_page * DIGEST_SIZE  # hashes never straddle pages
        self.num_leaves = num_leaves
        self._sizes = layer_sizes(num_leaves, fanout)
        self._layer_pages = _layer_page_table(self._sizes, self._hashes_per_page)
        total_pages = self._layer_pages[-1][0] + self._layer_pages[-1][1]
        file.preallocate(total_pages)
        depth = len(self._sizes)
        self._group_buffers: List[List[Digest]] = [[] for _ in range(depth)]
        self._page_buffers: List[bytearray] = [bytearray() for _ in range(depth)]
        self._next_slot = [0] * depth
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
        """Write the first page's worth of the layer's buffered hashes."""
        buffer = self._page_buffers[layer]
        if not buffer:
            return
        chunk = bytes(buffer[: self._page_bytes])
        del buffer[: self._page_bytes]
        start_page, _num_pages = self._layer_pages[layer]
        page_id = start_page + self._next_slot[layer] // self._hashes_per_page
        self._file.write_page(page_id, chunk.ljust(self._page_size, b"\x00"))
        self._next_slot[layer] += len(chunk) // DIGEST_SIZE

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
        for layer in range(len(self._sizes)):
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
        self._layer_pages = _layer_page_table(self._sizes, self._hashes_per_page)

    def hash_at(self, layer: int, index: int) -> Digest:
        """The ``index``-th hash of ``layer`` (one page read)."""
        if not 0 <= index < self._sizes[layer]:
            raise StorageError(f"hash index {index} out of range in layer {layer}")
        start_page, _num_pages = self._layer_pages[layer]
        page_id = start_page + index // self._hashes_per_page
        data = self._file.read_page(page_id)
        offset = (index % self._hashes_per_page) * DIGEST_SIZE
        return data[offset : offset + DIGEST_SIZE]

    def root(self) -> Digest:
        """The MHT root hash."""
        return self.hash_at(len(self._sizes) - 1, 0)

    def prove_range(self, lo: int, hi: int) -> MerkleRangeProof:
        """Range proof for leaf positions ``[lo, hi]`` (inclusive).

        A layer's siblings are the two ends of one contiguous span of
        hashes: each page they touch is read once, not once per hash.
        """
        if not 0 <= lo <= hi < self.num_leaves:
            raise StorageError(f"bad proof range [{lo}, {hi}]")
        leaf_lo, leaf_hi = lo, hi
        pages: Dict[int, bytes] = {}  # read by this call

        def hashes(layer: int, start: int, stop: int) -> List[Digest]:
            out: List[Digest] = []
            for index in range(start, stop):
                page, slot = divmod(index, self._hashes_per_page)
                page += self._layer_pages[layer][0]
                if page not in pages:
                    pages[page] = self._file.read_page(page)
                out.append(pages[page][slot * DIGEST_SIZE : (slot + 1) * DIGEST_SIZE])
            return out

        sibling_layers: List[Tuple[List[Digest], List[Digest]]] = []
        for layer in range(len(self._sizes) - 1):
            group_lo = lo // self.fanout
            group_hi = hi // self.fanout
            span_end = min((group_hi + 1) * self.fanout, self._sizes[layer])
            left = hashes(layer, group_lo * self.fanout, lo)
            right = hashes(layer, hi + 1, span_end)
            sibling_layers.append((left, right))
            lo, hi = group_lo, group_hi
        return MerkleRangeProof(
            lo=leaf_lo,
            hi=leaf_hi,
            num_leaves=self.num_leaves,
            fanout=self.fanout,
            sibling_layers=sibling_layers,
        )


def build_merkle_file(
    file: PagedFile,
    pairs: Iterable[Tuple[int, bytes]],
    num_leaves: int,
    fanout: int,
    key_width: int,
) -> Digest:
    """Convenience wrapper: feed ``pairs`` to a builder in one batch."""
    builder = MerkleFileBuilder(file, num_leaves, fanout)
    builder.add([key.to_bytes(key_width, "big") + value for key, value in pairs])
    return builder.finish()


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


def _layer_page_table(sizes: List[int], hashes_per_page: int) -> List[Tuple[int, int]]:
    """(start_page, num_pages) per layer; each layer is page-aligned."""
    table: List[Tuple[int, int]] = []
    next_page = 0
    for size in sizes:
        num_pages = -(-size // hashes_per_page)
        table.append((next_page, num_pages))
        next_page += num_pages
    return table
