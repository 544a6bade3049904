"""Reference oracle for the engine write path.

A decoded reference for the run builder, which streams encoded pairs a
page at a time: it takes decoded ``(key, value)`` entries, encodes each
entry for each file, and lays every artifact out whole, in memory —

* the value file: the encoded pairs, ``pairs_per_page`` to a zero-padded
  page;
* the Merkle file: every layer of the m-ary MHT, a parent being
  ``hash_concat`` of its children's digests, the layers back to back
  bottom-up, ``DIGEST_SIZE``-byte hashes packed to zero-padded pages;
* the bloom filter: bit ``(h1 + i * h2) % m`` set for every probe ``i``
  of every address, one bit at a time;
* the index file: the models :func:`build_models` learns from the decoded
  ``(key, position)`` stream, then from each layer's ``kmin`` column until
  a layer fits a page, each layer packed to fresh zero-padded pages; the
  file's last page ends with the layer table, on a page of its own when
  the top layer's page has no room for it.

:func:`reference_run` returns the four files' bytes and the run's
commitment, so ``tests/test_run.py`` can require the streaming build over
encoded pairs to write identical bytes.  The MB-tree node digests as they
were computed before they hashed one joined string — a parts list fed to
``hash_concat``, keys through ``int_to_bytes`` — are kept here too.
"""

import hashlib
from typing import Dict, List, Tuple

from repro.common.codec import encode_u32, encode_u64, int_to_bytes
from repro.common.hashing import DIGEST_SIZE, Digest, hash_bytes, hash_concat
from repro.common.params import ColeParams, SystemParams
from repro.core.run import BLOOM_BITS_PER_KEY, BLOOM_HASHES
from repro.learned.model import Model
from repro.learned.plm import build_models

Entry = Tuple[int, bytes]


def _pages(records: List[bytes], per_page: int, page_size: int) -> bytes:
    """``records`` packed ``per_page`` to a page, each page zero-padded."""
    return b"".join(
        b"".join(records[start : start + per_page]).ljust(page_size, b"\x00")
        for start in range(0, len(records), per_page)
    )


def mht_layers(leaves: List[Digest], fanout: int) -> List[List[Digest]]:
    """Every layer of the m-ary MHT over ``leaves``, bottom-up."""
    layers = [leaves]
    while len(layers[-1]) > 1:
        below = layers[-1]
        layers.append(
            [hash_concat(below[start : start + fanout]) for start in range(0, len(below), fanout)]
        )
    return layers


def _merkle_file(layers: List[List[Digest]], page_size: int) -> bytes:
    hashes = [digest for layer in layers for digest in layer]
    return _pages(hashes, page_size // DIGEST_SIZE, page_size)


def _index_file(keys: List[int], system: SystemParams) -> bytes:
    key_size, page_size = system.key_size, system.page_size
    record_size = Model.record_size(key_size)
    fit = page_size // record_size
    models_per_page = max(2, fit)
    layers = [list(build_models(zip(keys, range(len(keys))), system.epsilon))]
    while len(layers[-1]) > models_per_page:
        kmins = [model.kmin for model in layers[-1]]
        layers.append(list(build_models(zip(kmins, range(len(kmins))), models_per_page // 2)))
    pages: List[bytes] = []
    table = b""
    for layer in layers:
        table += encode_u64(len(pages)) + encode_u64(len(layer))
        records = [model.to_bytes(key_size) for model in layer]
        pages += [b"".join(records[start : start + fit]) for start in range(0, len(records), fit)]
    trailer = table + encode_u32(len(layers)) + encode_u32(models_per_page) + b"CIDX"
    if len(pages[-1]) + len(trailer) > page_size:
        pages.append(b"")
    pages[-1] = pages[-1].ljust(page_size - len(trailer), b"\x00") + trailer
    return b"".join(page.ljust(page_size, b"\x00") for page in pages)


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


def reference_run(entries: List[Entry], params: ColeParams) -> Tuple[Dict[str, bytes], Digest]:
    """``({suffix: file bytes}, commitment)`` of a run of ``entries``
    (sorted, distinct keys)."""
    system = params.system
    value_file = _pages(
        [int_to_bytes(key, system.key_size) + value for key, value in entries],
        system.pairs_per_page,
        system.page_size,
    )
    leaves = [hash_bytes(int_to_bytes(key, system.key_size) + value) for key, value in entries]
    layers = mht_layers(leaves, params.mht_fanout)
    bloom = _bloom_bytes([int_to_bytes(key >> 64, system.addr_size) for key, _value in entries])
    files = {
        ".val": value_file,
        ".idx": _index_file([key for key, _value in entries], system),
        ".mrk": _merkle_file(layers, system.page_size),
        ".blm": bloom,
    }
    return files, hash_concat([layers[-1][0], hash_bytes(bloom)])


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
