"""Reference oracle for the engine read path.

The decode-and-compare-integers routines ``repro.core`` shipped before
the read path went byte-wise: an index descent that materializes every
``Model`` of each page it visits, a value-file floor search that decodes
keys to integers (and reads the final page a second time), a bloom probe
that derives all ``k`` positions from a fresh SHA-256, and a Merkle fold
with no shape checks.  They read the same files through the same
``PagedFile`` handles, so ``tests/test_read_path.py`` can run both on
one run and require identical answers.  On top of them sit the engine's
three reads as Algorithms 6 and 8 state them — a point lookup, a
range scan over fully decoded sources, and a provenance query with its
proof — for the engine's answers and proofs to be compared against.
"""

import bisect
import hashlib
from typing import Dict, List, Optional, Tuple

from repro.bloomfilter import BloomFilter
from repro.common.hashing import hash_concat
from repro.core.compound import MAX_BLK
from repro.core.indexfile import IndexFile
from repro.core.merklefile import MerkleFile, MerkleRangeProof, leaf_hash
from repro.core.proofs import (
    MemProofItem,
    ProvenanceProof,
    ProvenanceResult,
    RunNegativeItem,
    RunProofItem,
    StubItem,
)
from repro.core.run import Run
from repro.core.valuefile import ValueFile
from repro.learned.model import Model

Entry = Tuple[int, bytes]


# -- bloom filter -----------------------------------------------------------------


def bloom_positions(bloom: BloomFilter, item: bytes) -> List[int]:
    """Probe ``i`` is ``(h1 + i * h2) % num_bits``."""
    digest = hashlib.sha256(item).digest()
    h1 = int.from_bytes(digest[:16], "big")
    h2 = int.from_bytes(digest[16:], "big") | 1  # odd => full cycle
    return [(h1 + i * h2) % bloom.num_bits for i in range(bloom.num_hashes)]


def bloom_contains(bloom: BloomFilter, item: bytes) -> bool:
    bits = bloom.to_bytes()[12:]  # the serialized bit array, after any pending adds
    return all(
        bits[position >> 3] & (1 << (position & 7))
        for position in bloom_positions(bloom, item)
    )


# -- index file -------------------------------------------------------------------


def _models_on_page(index: IndexFile, layer, page_offset: int) -> List[Model]:
    data = index._file.read_page(layer.start_page + page_offset)
    first = page_offset * index.models_per_page
    count = min(index.models_per_page, layer.num_models - first)
    return [
        Model.from_bytes(data, index._key_size, slot * index._record_size)
        for slot in range(count)
    ]


def _floor_model_in_layer(
    index: IndexFile, layer, predicted_position: int, key: int
) -> Optional[Model]:
    last_page = max(1, -(-layer.num_models // index.models_per_page)) - 1
    page = min(max(predicted_position, 0), layer.num_models - 1) // index.models_per_page
    models = _models_on_page(index, layer, page)
    while key < models[0].kmin and page > 0:
        page -= 1
        models = _models_on_page(index, layer, page)
    if key < models[0].kmin:
        return None
    if key > models[-1].kmin and page < last_page:
        next_models = _models_on_page(index, layer, page + 1)
        if key >= next_models[0].kmin:
            models = next_models
    kmins = [model.kmin for model in models]
    return models[bisect.bisect_right(kmins, key) - 1]


def index_search(index: IndexFile, key: int) -> Optional[int]:
    """``IndexFile.search`` over decoded models; any integer ``key``."""
    model = _floor_model_in_layer(index, index._layers[-1], 0, key)
    if model is None:
        return None
    for layer in reversed(index._layers[:-1]):
        model = _floor_model_in_layer(index, layer, model.predict(key), key)
        if model is None:
            return None
    return model.predict(key)


# -- value file + run -------------------------------------------------------------


def _slot_key(value_file: ValueFile, data: bytes, slot: int) -> int:
    offset = slot * value_file._pair_size
    return int.from_bytes(data[offset : offset + value_file._key_size], "big")


def _page_bounds(value_file: ValueFile, page_id: int) -> Tuple[int, int]:
    data = value_file._file.read_page(page_id)
    count = value_file._page_count(page_id)
    return _slot_key(value_file, data, 0), _slot_key(value_file, data, count - 1)


def floor_in_page(value_file: ValueFile, page_id: int, key: int) -> Optional[Tuple[Entry, int]]:
    data = value_file._file.read_page(page_id)
    lo, hi = 0, value_file._page_count(page_id)
    while lo < hi:
        mid = (lo + hi) // 2
        if _slot_key(value_file, data, mid) <= key:
            lo = mid + 1
        else:
            hi = mid
    if lo == 0:
        return None
    slot = lo - 1
    return value_file._slot_entry(data, slot), page_id * value_file.pairs_per_page + slot


def run_floor_search(run: Run, key: int) -> Optional[Tuple[Entry, int]]:
    """``Run.floor_search`` on integers; any integer ``key``."""
    predicted = index_search(run.index_file, key)
    if predicted is None:
        return None
    value_file = run.value_file
    last_page = value_file.page_of(run.num_entries - 1)
    page = min(max(predicted, 0), run.num_entries - 1) // value_file.pairs_per_page
    first_key, last_key = _page_bounds(value_file, page)
    while key < first_key and page > 0:
        page -= 1
        first_key, last_key = _page_bounds(value_file, page)
    if key < first_key:
        return None
    if key > last_key and page < last_page:
        next_first, _next_last = _page_bounds(value_file, page + 1)
        if key >= next_first:
            page += 1
    return floor_in_page(value_file, page, key)


# -- merkle file ------------------------------------------------------------------


def prove_range_siblings(merkle: MerkleFile, lo: int, hi: int):
    """``MerkleFile.prove_range``'s sibling layers, one ``hash_at`` per hash."""
    sibling_layers = []
    for layer in range(len(merkle._sizes) - 1):
        group_lo = lo // merkle.fanout
        group_hi = hi // merkle.fanout
        span_start = group_lo * merkle.fanout
        span_end = min((group_hi + 1) * merkle.fanout, merkle._sizes[layer]) - 1
        left = [merkle.hash_at(layer, i) for i in range(span_start, lo)]
        right = [merkle.hash_at(layer, i) for i in range(hi + 1, span_end + 1)]
        sibling_layers.append((left, right))
        lo, hi = group_lo, group_hi
    return sibling_layers


def merkle_range_proof(merkle: MerkleFile, lo: int, hi: int) -> MerkleRangeProof:
    return MerkleRangeProof(
        lo=lo, hi=hi, num_leaves=merkle.num_leaves, fanout=merkle.fanout,
        sibling_layers=prove_range_siblings(merkle, lo, hi),
    )


def fold_merkle(entries: List[Entry], proof, key_width: int) -> bytes:
    """The verifier's unchecked fold: whatever root the proof implies."""
    digests = [leaf_hash(key, value, key_width) for key, value in entries]
    position = proof.lo
    for left, right in proof.sibling_layers:
        span = list(left) + digests + list(right)
        span_start = position - len(left)
        digests = [
            hash_concat(span[start : start + proof.fanout])
            for start in range(0, len(span), proof.fanout)
        ]
        position = span_start // proof.fanout
    assert len(digests) == 1
    return digests[0]


# -- engine reads: Algorithms 6 and 8 over an engine's sources ------------------------


def run_entries(run: Run) -> List[Entry]:
    """Every pair of ``run``, decoded."""
    key_size = run.value_file._key_size
    return [
        (int.from_bytes(pair[:key_size], "big"), pair[key_size:])
        for pair in run.value_file.iter_pairs()
    ]


def run_bloom_bytes(run: Run) -> bytes:
    """The run's filter as its ``.blm`` file holds it."""
    with open(run.workspace.path_of(run.name + ".blm"), "rb") as handle:
        return handle.read()


def lookup(sources, addr: bytes, blk: int) -> Optional[bytes]:
    """Algorithm 6: the first source, freshest first, whose floor of
    ``<addr, blk>`` is a version of ``addr``."""
    key = int.from_bytes(addr, "big") << 64 | blk
    for source in sources:
        if source.kind == "mem":
            found = source.source.floor_search(key)
        elif bloom_contains(source.source.bloom, addr):
            found = run_floor_search(source.source, key)
            found = found[0] if found is not None else None
        else:
            continue
        if found is not None and found[0] >> 64 == key >> 64:
            return found[1]
    return None


def scan(sources, addr_low: bytes, addr_high: bytes, at_blk: int, limit: int, addr_size: int):
    """Every entry of every source (newest source wins a key), each
    address reduced to its last version at or below ``at_blk``."""
    versions: Dict[int, bytes] = {}
    for source in reversed(sources):
        if source.kind == "mem":
            versions.update(source.source.tree.items())
        else:
            versions.update(run_entries(source.source))
    low, high = int.from_bytes(addr_low, "big"), int.from_bytes(addr_high, "big")
    live: Dict[int, Tuple[int, bytes]] = {}
    for key in sorted(versions):
        if low <= key >> 64 <= high and key & MAX_BLK <= at_blk:
            live[key >> 64] = (key & MAX_BLK, versions[key])
    return [
        (addr.to_bytes(addr_size, "big"), blk, value)
        for addr, (blk, value) in sorted(live.items())
    ][:limit]


def prov_query(cole, addr: bytes, blk_low: int, blk_high: int) -> ProvenanceResult:
    """Algorithm 8 over ``cole``'s view: filters and their digests read
    back from the ``.blm`` files, runs searched and disclosed by the
    routines above, Merkle siblings read one hash at a time."""
    addr_int = int.from_bytes(addr, "big")
    key_low = (addr_int << 64) + blk_low - 1
    key_high = (addr_int << 64) + min(blk_high + 1, MAX_BLK)
    found: Dict[int, bytes] = {}
    items = {}
    for source in cole._read_sources():
        if source.kind == "mem":
            entries, proof = source.source.range_proof(key_low, key_high)
            items[source.label] = MemProofItem(proof=proof)
        else:
            run = source.source
            bloom_bytes = run_bloom_bytes(run)
            if not bloom_contains(BloomFilter.from_bytes(bloom_bytes), addr):
                items[source.label] = RunNegativeItem(
                    bloom_bytes=bloom_bytes, merkle_root=run.merkle_root
                )
                continue
            every = run_entries(run)
            floor = run_floor_search(run, key_low)
            lo = hi = floor[1] if floor is not None else 0
            while hi < len(every) - 1 and every[hi][0] <= key_high:
                hi += 1
            entries = every[lo : hi + 1]
            items[source.label] = RunProofItem(
                entries=entries, lo=lo, hi=hi, num_entries=run.num_entries,
                merkle_proof=merkle_range_proof(run.merkle_file, lo, hi),
                bloom_digest=hashlib.sha256(bloom_bytes).digest(),
            )
        older = False
        for key, value in entries:
            if key >> 64 == addr_int and key & MAX_BLK <= blk_high:
                found.setdefault(key & MAX_BLK, value)
                older = older or key & MAX_BLK < blk_low
        if older:
            break
    proof_items = []
    for source in cole._view.roots:
        if source.label in items:
            proof_items.append(items[source.label])
        elif source.kind == "mem":
            proof_items.append(StubItem(digest=source.source.root()))
        else:
            run = source.source
            bloom_digest = hashlib.sha256(run_bloom_bytes(run)).digest()
            proof_items.append(StubItem(digest=hash_concat([run.merkle_root, bloom_digest])))
    below = [(blk, value) for blk, value in found.items() if blk < blk_low]
    return ProvenanceResult(
        versions=sorted((blk, value) for blk, value in found.items() if blk >= blk_low),
        boundary_version=max(below) if below else None,
        proof=ProvenanceProof(addr=addr, blk_low=blk_low, blk_high=blk_high, items=proof_items),
    )
