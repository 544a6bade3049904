"""Reference oracle for the engine write path.

A decoded reference for the run builder, which streams encoded pairs a
page at a time: it takes decoded ``(key, value)`` entries, encodes each
entry for each file, and lays every artifact out whole, in memory —

* the value file: the encoded pairs, ``pairs_per_page`` to a zero-padded
  page;
* the Merkle file: every layer of the m-ary MHT, a parent being
  ``hash_concat`` of its children's digests, each layer starting on a
  page boundary of zero-padded pages;
* the bloom filter: bit ``(h1 + i * h2) % m`` set for every probe ``i``
  of every address, one bit at a time;
* the index file: :class:`IndexFileBuilder` fed the decoded
  ``(key, position)`` stream.

:func:`reference_run` returns the four files' bytes and the run's
commitment, so ``tests/test_run.py`` can require the streaming build over
encoded pairs to write identical bytes.  The MB-tree node digests as they
were computed before they hashed one joined string — a parts list fed to
``hash_concat``, keys through ``int_to_bytes`` — are kept here too.
"""

import hashlib
import os
from typing import Dict, List, Tuple

from repro.common.codec import encode_u32, int_to_bytes
from repro.common.hashing import DIGEST_SIZE, Digest, hash_bytes, hash_concat
from repro.common.params import ColeParams
from repro.core.indexfile import IndexFileBuilder
from repro.core.run import BLOOM_BITS_PER_KEY, BLOOM_HASHES
from repro.diskio.pagefile import PagedFile

Entry = Tuple[int, bytes]


def _pages(records: List[bytes], per_page: int, page_size: int) -> bytes:
    """``records`` packed ``per_page`` to a page, each page zero-padded."""
    return b"".join(
        b"".join(records[start : start + per_page]).ljust(page_size, b"\x00")
        for start in range(0, len(records), per_page)
    )


def _merkle_file(leaves: List[Digest], fanout: int, page_size: int) -> Tuple[bytes, Digest]:
    hashes_per_page = page_size // DIGEST_SIZE
    layers = [leaves]
    while len(layers[-1]) > 1:
        below = layers[-1]
        layers.append(
            [hash_concat(below[start : start + fanout]) for start in range(0, len(below), fanout)]
        )
    data = b"".join(_pages(layer, hashes_per_page, page_size) for layer in layers)
    return data, layers[-1][0]


def _bloom_bytes(addrs: List[bytes]) -> bytes:
    num_bits = max(8, len(addrs) * BLOOM_BITS_PER_KEY)
    bits = bytearray((num_bits + 7) // 8)
    for addr in addrs:
        digest = hashlib.sha256(addr).digest()
        h1 = int.from_bytes(digest[:16], "big")
        h2 = int.from_bytes(digest[16:], "big") | 1
        for probe in range(BLOOM_HASHES):
            position = (h1 + probe * h2) % num_bits
            bits[position >> 3] |= 1 << (position & 7)
    header = encode_u32(num_bits) + encode_u32(BLOOM_HASHES) + encode_u32(len(addrs))
    return header + bytes(bits)


def reference_run(
    directory: str, entries: List[Entry], params: ColeParams
) -> Tuple[Dict[str, bytes], Digest]:
    """``({suffix: file bytes}, commitment)`` of a run of ``entries``
    (sorted, distinct keys); the index file is written under ``directory``."""
    system = params.system
    value_file = _pages(
        [int_to_bytes(key, system.key_size) + value for key, value in entries],
        system.pairs_per_page,
        system.page_size,
    )
    leaves = [hash_bytes(int_to_bytes(key, system.key_size) + value) for key, value in entries]
    merkle_file, merkle_root = _merkle_file(leaves, params.mht_fanout, system.page_size)
    bloom = _bloom_bytes([int_to_bytes(key >> 64, system.addr_size) for key, _value in entries])

    index_path = os.path.join(directory, "reference.idx")
    index = PagedFile(index_path, system.page_size)
    builder = IndexFileBuilder(index, system)
    builder.add_bottom_models((key, position) for position, (key, _value) in enumerate(entries))
    builder.finish()
    index.close()
    with open(index_path, "rb") as handle:
        index_file = handle.read()
    os.remove(index_path)

    files = {".val": value_file, ".idx": index_file, ".mrk": merkle_file, ".blm": bloom}
    return files, hash_concat([merkle_root, hash_bytes(bloom)])


# -- MB-tree node digests -----------------------------------------------------------


def leaf_digest(keys: List[int], values: List[bytes], key_width: int) -> Digest:
    parts: List[bytes] = [b"L"]
    for key, value in zip(keys, values):
        parts.append(int_to_bytes(key, key_width))
        parts.append(value)
    return hash_concat(parts)


def internal_digest(keys: List[int], child_digests: List[Digest], key_width: int) -> Digest:
    parts: List[bytes] = [b"I"]
    for key in keys:
        parts.append(int_to_bytes(key, key_width))
    parts.extend(child_digests)
    return hash_concat(parts)
