"""The byte-wise read path against its integer oracle, and its IO bounds.

``tests/read_oracle.py`` keeps the routines the engine shipped before
lookups compared key bytes in place: every search here is run through
both and must agree exactly — on index geometries deep enough to have
three and more layers (the benchmark store only ever has one), on keys
equal to, between, below and above every stored key, on page-boundary
keys, and on integers outside the key space.  The rest pins what the new
path reads: no page twice per search, one SHA-256 per lookup, one read
per Merkle page a proof touches, one header parse per disclosed filter,
and the exact page reads of a batch of gets, get_ats, scans and
provenance queries on the sync, async and 3-shard engines, whose answers
and proofs must equal the oracle's.
"""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import read_oracle
from repro import Cole, verify_provenance
from repro.bloomfilter import BloomFilter, hash_item
from repro.common.errors import StorageError, VerificationError
from repro.common.hashing import hash_concat
from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.core.compound import CompoundKey, MAX_BLK
from repro.core.indexfile import IndexFile, IndexFileBuilder
from repro.core.merklefile import (
    MerkleFile,
    MerkleFileBuilder,
    fold_range_proof,
    verify_range_proof,
)
from repro.core.proofs import RunNegativeItem, RunProofItem
from repro.core.run import Run, encode_pairs
from repro.diskio.pagefile import PagedFile
from repro.diskio.workspace import Workspace
from repro.sharding import ShardedCole


def log_reads(monkeypatch):
    """Every ``PagedFile.read_page`` from here on, as ``(path, page_id)``."""
    reads = []
    original = PagedFile.read_page

    def read_page(self, page_id, sequential=False):
        reads.append((self.path, page_id))
        return original(self, page_id, sequential)

    monkeypatch.setattr(PagedFile, "read_page", read_page)
    return reads


# =============================================================================
# index descent and run floor search: new == oracle
# =============================================================================

#: (addr_size, value_size, page_size): key widths 9..28 bytes on pages of
#: 2..3 pairs and 3 models, so 150+ keys stack three and more index layers.
GEOMETRIES = [(1, 40, 128), (4, 30, 128), (8, 40, 128), (20, 50, 192)]


def _keys(rng, system, count):
    """Sorted keys no line follows for long: gaps of every magnitude."""
    top = 1 << (8 * system.key_size)
    bits = 8 * system.key_size - count.bit_length() - 1
    keys = [rng.choice([0, rng.randrange(1 << 16)])]  # the first key of the key space, or not
    while len(keys) < count:
        keys.append(keys[-1] + (1 << rng.randrange(bits)) + rng.randrange(3))
    if rng.random() < 0.3:
        keys[-1] = top - 1  # the last key of the key space
    return keys


def _probes(keys, system, pairs_per_page):
    top = 1 << (8 * system.key_size)
    probes = {0, top - 1, keys[0] - 1, keys[-1] + 1}
    for position, key in enumerate(keys):
        if position % 7 == 0 or position % pairs_per_page in (0, pairs_per_page - 1):
            probes.update((key - 1, key, key + 1))
    in_range = sorted(probe for probe in probes if 0 <= probe < top)
    outside = [-1, -(1 << 70), top, top + 5, 1 << 2000]
    return in_range, outside


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(GEOMETRIES), st.integers(0, 2**32), st.integers(150, 1200))
def test_floor_search_agrees_with_integer_oracle(tmp_path_factory, geometry, seed, count):
    addr_size, value_size, page_size = geometry
    system = SystemParams(addr_size=addr_size, value_size=value_size, page_size=page_size)
    params = ColeParams(system=system, mem_capacity=8)
    rng = random.Random(seed)
    keys = _keys(rng, system, count)
    entries = [(key, rng.randbytes(value_size)) for key in keys]
    ws = Workspace(str(tmp_path_factory.mktemp("ws")), page_size)
    run = Run.build(ws, "r", 1, iter(encode_pairs(entries, system.key_size)), len(entries), params)
    try:
        assert run.index_file.num_layers >= 3
        in_range, outside = _probes(keys, system, system.pairs_per_page)
        for key in in_range:
            assert run.index_file.search(key) == read_oracle.index_search(run.index_file, key)
            assert run.floor_search(key) == read_oracle.run_floor_search(run, key)
        last = (entries[-1], len(entries) - 1)
        for key in outside:
            expected = None if key < 0 else last
            assert run.floor_search(key) == expected
            assert run.value_file.floor_in_page(run.value_file.page_of(last[1]), key) == expected
            if key < 0:
                assert run.index_file.search(key) is None
            else:
                top_key = (1 << (8 * system.key_size)) - 1
                assert run.index_file.search(key) == run.index_file.search(top_key)
            if key < 1 << 1000:  # the oracle's float() cannot take more
                assert read_oracle.run_floor_search(run, key) == expected
    finally:
        ws.close()


def test_deep_index_agrees_on_every_kmin(tmp_path):
    # Deterministic twin of the property: four layers, probed at, just
    # below and just above every bottom-layer kmin.
    system = SystemParams(addr_size=4, value_size=30, page_size=128)
    keys = _keys(random.Random(11), system, 1200)
    file = PagedFile(str(tmp_path / "i.idx"), system.page_size)
    builder = IndexFileBuilder(file, system)
    builder.add_bottom_models((key, position) for position, key in enumerate(keys))
    builder.finish()
    index = IndexFile(file, system)
    assert index.num_layers >= 4
    bottom = index._layers[0]
    kmins = [
        model.kmin
        for page in range(-(-bottom.num_models // index.models_per_page))
        for model in read_oracle._models_on_page(index, bottom, page)
    ]
    assert len(kmins) == index.num_bottom_models
    for kmin in kmins:
        for key in (kmin - 1, kmin, kmin + 1):
            assert index.search(key) == read_oracle.index_search(index, key)
    assert index.search(kmins[0] - 1) is None


# =============================================================================
# IO: nothing is read twice
# =============================================================================

def test_floor_search_reads_no_page_twice(tmp_path, monkeypatch):
    system = SystemParams(addr_size=8, value_size=40, page_size=128)
    params = ColeParams(system=system, mem_capacity=8)
    rng = random.Random(3)
    keys = _keys(rng, system, 1500)
    ws = Workspace(str(tmp_path / "ws"), system.page_size)
    pairs = encode_pairs(((key, b"v" * 40) for key in keys), system.key_size)
    run = Run.build(ws, "r", 1, iter(pairs), len(keys), params)
    layers = run.index_file.num_layers
    assert layers >= 3
    reads = log_reads(monkeypatch)
    for key in keys[::37] + [key + 1 for key in keys[::41]]:
        del reads[:]
        assert run.floor_search(key) is not None
        assert len(reads) == len(set(reads))
        index_reads = [read for read in reads if read[0].endswith(".idx")]
        assert len(index_reads) <= 2 * layers
        assert len(reads) - len(index_reads) <= 2  # the predicted value page, or its neighbour too
    ws.close()


def test_prove_range_reads_each_touched_page_once(tmp_path, monkeypatch):
    # 32-byte pages x 4 = 128-byte pages: 4 hashes a page, fanout 4, so a
    # layer's left and right siblings share a page whenever they share a
    # group — and a 1 000-leaf tree has 5 sibling layers.
    file = PagedFile(str(tmp_path / "m.mrk"), 128)
    pairs = [(index * 2**64 + 1, bytes([index % 251]) * 4) for index in range(1000)]
    builder = MerkleFileBuilder(file, len(pairs), 4)
    builder.add([key.to_bytes(16, "big") + value for key, value in pairs])
    root = builder.finish()
    merkle = MerkleFile(file, len(pairs), 4)
    reads = log_reads(monkeypatch)
    for lo, hi in [(0, 0), (5, 6), (1, 2), (333, 334), (2, 997), (999, 999), (0, 999)]:
        del reads[:]
        proof = merkle.prove_range(lo, hi)
        touched = list(reads)
        hashes = sum(len(left) + len(right) for left, right in proof.sibling_layers)
        assert len(touched) == len(set(touched))  # a page is read once per proof
        assert len(touched) <= min(hashes, 2 * len(proof.sibling_layers))  # left end, right end
        assert proof.sibling_layers == read_oracle.prove_range_siblings(merkle, lo, hi)
        verify_range_proof(pairs[lo : hi + 1], proof, root, 16)
    del reads[:]
    proof = merkle.prove_range(1, 2)  # both siblings of every layer on one page
    assert len(reads) == len(proof.sibling_layers) < sum(
        len(left) + len(right) for left, right in proof.sibling_layers
    )


# =============================================================================
# bloom membership: new == oracle, raw or pre-hashed
# =============================================================================

@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=12), max_size=40),
    st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=40),
    st.one_of(st.just(8), st.sampled_from([9, 11, 13, 255, 1023]), st.integers(8, 5000)),
    st.integers(1, 9),
)
def test_bloom_membership_agrees_with_positions_oracle(members, probes, num_bits, num_hashes):
    bloom = BloomFilter(num_bits, num_hashes)
    bloom.add(sorted(members))
    for item in members + probes:
        expected = read_oracle.bloom_contains(bloom, item)
        assert (item in bloom) == expected
        assert (hash_item(item) in bloom) == expected
        assert bloom.may_contain(hash_item(item)) == expected
    assert all(item in bloom for item in members)


def test_bloom_probe_with_a_zero_step():
    # h2 is odd, so an odd num_bits can divide it: every probe then lands
    # on one bit, for the stepping loop as for (h1 + i * h2) % m.
    num_bits = 9
    item = next(
        candidate
        for candidate in (index.to_bytes(4, "big") for index in range(10_000))
        if hash_item(candidate)[1] % num_bits == 0
    )
    bloom = BloomFilter(num_bits, 5)
    assert len(set(read_oracle.bloom_positions(bloom, item))) == 1
    assert item not in bloom and not read_oracle.bloom_contains(bloom, item)
    bloom.add([item])
    assert item in bloom and hash_item(item) in bloom
    assert sum(bin(byte).count("1") for byte in bloom._bits) == 1


# =============================================================================
# the engine: one hash per lookup, get_many == gets, out-of-range keys
# =============================================================================

ADDR_SIZE = 8


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    system = SystemParams(addr_size=ADDR_SIZE, value_size=8, page_size=256)
    params = ColeParams(system=system, mem_capacity=16, size_ratio=3)
    cole = Cole(str(tmp_path_factory.mktemp("store")), params)
    rng = random.Random(0xB17E)
    # The first and last address of the address space are in the pool:
    # their provenance windows reach one key past either end of the key space.
    pool = [b"\x00" * ADDR_SIZE, b"\xff" * ADDR_SIZE]
    pool += [rng.randbytes(ADDR_SIZE) for _ in range(60)]
    history = {}
    for blk in range(1, 81):  # 26 flushes = 2 + 2*3 + 2*9: two runs on each of three levels
        cole.begin_block(blk)
        for addr in rng.sample(pool, 6):
            value = rng.randbytes(8)
            cole.put(addr, value)
            history.setdefault(addr, []).append((blk, value))
        cole.commit_block()
    assert sum(len(level.all_runs()) for level in cole.levels) >= 4
    yield cole, pool, history
    cole.close()


def test_get_hashes_the_address_once(store, monkeypatch):
    cole, pool, _history = store
    hashed = []
    real_sha256 = hashlib.sha256

    def counting_sha256(data=b"", **kwargs):
        hashed.append(bytes(data))
        return real_sha256(data, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    num_runs = sum(len(level.all_runs()) for level in cole.levels)
    for addr in pool[:20] + [b"\x01" * ADDR_SIZE]:
        del hashed[:]
        cole.get(addr)
        assert hashed.count(addr) == 1, "one SHA-256 of the address per get"
        del hashed[:]
        cole.get_at(addr, 45)
        assert hashed.count(addr) == 1
        del hashed[:]
        cole.prov_query(addr, 10, 50)
        assert hashed.count(addr) == 1
    del hashed[:]
    batch = pool[:10] + pool[:5]
    cole.get_many(batch)
    assert all(hashed.count(addr) == 1 for addr in batch)
    assert num_runs >= 4


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_get_many_equals_gets_with_duplicates(store, data):
    cole, pool, _history = store
    candidates = st.one_of(st.sampled_from(pool), st.binary(min_size=ADDR_SIZE, max_size=ADDR_SIZE))
    addrs = data.draw(st.lists(candidates, max_size=40))
    addrs += data.draw(st.lists(st.sampled_from(addrs), max_size=10)) if addrs else []
    assert cole.get_many(addrs) == [cole.get(addr) for addr in addrs]


@pytest.mark.parametrize("addr", [b"\x00" * ADDR_SIZE, b"\xff" * ADDR_SIZE])
def test_prov_query_at_the_ends_of_the_key_space(store, addr):
    # <addr, blk_low - 1> is -1 for the zero address at blk_low = 0: below
    # every encodable key.  The run search must answer "position 0", not
    # fail to encode it; the proof must verify.
    cole, _pool, history = store
    root = cole.root_digest()
    for low, high in [(0, 80), (0, 0), (0, MAX_BLK), (30, MAX_BLK)]:
        result = cole.prov_query(addr, low, high)
        expected = [(blk, value) for blk, value in history[addr] if low <= blk <= high]
        assert result.versions == expected
        assert verify_provenance(result, root, addr_size=ADDR_SIZE) == expected
    assert any(isinstance(item, RunProofItem) for item in result.proof.items)
    assert cole.get(addr) == history[addr][-1][1]
    assert cole.get_at(addr, 0) is None
    assert cole.scan(b"\x00" * ADDR_SIZE, b"\xff" * ADDR_SIZE, limit=1)[0][0] == b"\x00" * ADDR_SIZE


def test_run_search_below_and_above_the_key_space(store):
    cole, _pool, _history = store
    top = 1 << (8 * (ADDR_SIZE + 8))
    for level in cole.levels:
        for run in level.all_runs():
            last = run.num_entries - 1
            assert run.floor_search(-1) is None
            assert run.index_file.search(-1) is None
            assert run.floor_search(top) == run.floor_search(top - 1)
            assert run.floor_search(top + 12345)[1] == last
            assert run.prov_scan(-1, CompoundKey(b"\x00" * ADDR_SIZE, 5).to_int()).lo == 0


# =============================================================================
# proof soundness: one fold, every shape check
# =============================================================================

def _replace_item(result, index, item):
    items = list(result.proof.items)
    items[index] = item
    return dataclasses.replace(result, proof=dataclasses.replace(result.proof, items=items))


def _searched_run_item(result):
    """A searched run's item with siblings on both sides of some layer."""
    for index, item in enumerate(result.proof.items):
        if isinstance(item, RunProofItem) and any(
            left and right for left, right in item.merkle_proof.sibling_layers
        ):
            return index, item
    raise AssertionError("no searched run with two-sided siblings in the proof")


@pytest.fixture
def proven(store):
    cole, pool, history = store
    addr = max(pool[2:], key=lambda candidate: len(history.get(candidate, ())))
    result = cole.prov_query(addr, 20, 70)
    root = cole.root_digest()
    assert verify_provenance(result, root, addr_size=ADDR_SIZE) == [
        (blk, value) for blk, value in history[addr] if 20 <= blk <= 70
    ]
    return result, root


def _tampered_merkle_proofs(item):
    proof = item.merkle_proof
    layers = proof.sibling_layers
    two_sided = next(i for i, (left, right) in enumerate(layers) if left and right)
    left, right = layers[two_sided]

    def with_layer(new_layer):
        return layers[:two_sided] + [new_layer] + layers[two_sided + 1 :]

    flipped = bytes([left[0][0] ^ 1]) + left[0][1:]
    yield "flipped sibling", dataclasses.replace(
        proof, sibling_layers=with_layer(([flipped] + left[1:], right))
    )
    yield "sibling moved left to right", dataclasses.replace(
        proof, sibling_layers=with_layer((left[:-1], [left[-1]] + right))
    )
    yield "sibling dropped", dataclasses.replace(
        proof, sibling_layers=with_layer((left, right[:-1]))
    )
    yield "layer dropped", dataclasses.replace(proof, sibling_layers=layers[:-1])
    yield "layer added", dataclasses.replace(proof, sibling_layers=layers + [([], [])])
    yield "wrong lo", dataclasses.replace(proof, lo=proof.lo + 1)
    yield "wrong hi", dataclasses.replace(proof, hi=proof.hi + 1)
    yield "wrong num_leaves", dataclasses.replace(proof, num_leaves=proof.num_leaves + 1)
    yield "wrong fanout", dataclasses.replace(proof, fanout=proof.fanout + 1)


def test_tampered_merkle_proofs_are_rejected(proven):
    result, root = proven
    index, item = _searched_run_item(result)
    key_width = ADDR_SIZE + 8
    genuine_root = fold_range_proof(item.entries, item.merkle_proof, key_width)
    assert genuine_root == read_oracle.fold_merkle(item.entries, item.merkle_proof, key_width)
    verify_range_proof(item.entries, item.merkle_proof, genuine_root, key_width)
    seen = []
    for label, tampered in _tampered_merkle_proofs(item):
        seen.append(label)
        # A leaf count one off changes the fold only at the tree's right
        # edge; what pins it is the run item's own num_entries, below.
        if label != "wrong num_leaves":
            with pytest.raises(VerificationError):
                verify_range_proof(item.entries, tampered, genuine_root, key_width)
        forged = _replace_item(result, index, dataclasses.replace(item, merkle_proof=tampered))
        with pytest.raises(VerificationError):
            verify_provenance(forged, root, addr_size=ADDR_SIZE)
    assert len(seen) == 9
    # The item's own range moved together with the proof's: still caught.
    for field in ("lo", "hi"):
        moved = dataclasses.replace(
            item,
            **{field: getattr(item, field) + 1},
            merkle_proof=dataclasses.replace(
                item.merkle_proof, **{field: getattr(item.merkle_proof, field) + 1}
            ),
        )
        with pytest.raises(VerificationError):
            verify_provenance(_replace_item(result, index, moved), root, addr_size=ADDR_SIZE)


# =============================================================================
# page counts of the read path, pinned per engine shape; answers vs the oracle
# =============================================================================

SHAPE_PARAMS = ColeParams(
    system=SystemParams(addr_size=ADDR_SIZE, value_size=8, page_size=256),
    mem_capacity=16,
    size_ratio=3,
)

#: Page reads of one ``_read_batch`` per shape.  Gets, get_ats and provs
#: read what they read before a scan's seek page was handed to it.  Scans
#: are pinned as ``(reads when every seek page was read twice, seeks
#: whose first entry is on the seek page)``: one page fewer per such seek
#: (the second count is recomputed by the oracle).
PINNED_PAGE_READS = {
    "sync": {"get": 52, "get_at": 104, "prov": 282, "scan": (385, 80)},
    "async": {"get": 41, "get_at": 104, "prov": 315, "scan": (527, 134)},
    "sharded3": {"get": 40, "get_at": 69, "prov": 200, "scan": (533, 119)},
}


def _shape_store(directory, shape):
    """A fixed 80-block store: runs on three levels, a non-empty L0."""
    if shape == "sharded3":
        engine = ShardedCole(directory, ShardParams(cole=SHAPE_PARAMS, num_shards=3))
    else:
        engine = Cole(directory, SHAPE_PARAMS.with_async(shape == "async"))
    rng = random.Random(0x5EED)
    pool = [rng.randbytes(ADDR_SIZE) for _ in range(72)]
    for blk in range(1, 81):
        engine.begin_block(blk)
        engine.put_many([(addr, rng.randbytes(8)) for addr in rng.sample(pool, 7)])
        engine.commit_block()
    engine.wait_for_merges()  # no build reads pages behind the batch
    return engine, pool


def _read_batch(pool):
    rng = random.Random(0xBA7C)
    absent = [rng.randbytes(ADDR_SIZE) for _ in range(10)]
    return (
        [("get", (addr,)) for addr in rng.sample(pool, 30) + absent]
        + [("get_at", (rng.choice(pool), rng.randint(0, 85))) for _ in range(20)]
        + [("scan", (rng.randbytes(ADDR_SIZE), rng.choice([None, 40]), rng.choice([1, 5, 12])))
           for _ in range(16)]
        + [("prov", (rng.choice(pool), low, low + rng.randint(0, 30)))
           for low in (rng.randint(0, 70) for _ in range(12))]
    )


def _execute(engine, kind, args):
    if kind == "get":
        return engine.get(*args)
    if kind == "get_at":
        return engine.get_at(*args)
    if kind == "scan":
        low, at_blk, limit = args
        return engine.scan(low, b"\xff" * ADDR_SIZE, at_blk=at_blk, limit=limit)
    return engine.prov_query(*args)


def _pages_by_kind(engine, batch):
    """Page reads per op kind; a first pass memoizes every run's key range."""
    for kind, args in batch:
        _execute(engine, kind, args)
    pages = dict.fromkeys(["get", "get_at", "scan", "prov"], 0)
    for kind, args in batch:
        before = engine.stats.snapshot()
        _execute(engine, kind, args)
        pages[kind] += engine.stats.delta(before).total_reads
    return pages


def _shards(engine):
    return engine.shards if isinstance(engine, ShardedCole) else [engine]


def _seeks_on_seek_page(engine, low):
    """Run seeks of a scan from ``low`` whose first entry is on the value
    page the seek settled on: the pages a scan no longer reads twice."""
    key_low = CompoundKey(low, 0).to_int()
    key_high = CompoundKey(b"\xff" * ADDR_SIZE, MAX_BLK).to_int()
    saved = 0
    for shard in _shards(engine):
        for source in shard._read_sources():
            if source.kind != "run" or not source.overlaps(key_low, key_high):
                continue
            floor = read_oracle.run_floor_search(source.source, key_low)
            if floor is None:
                continue
            (floor_key, _value), position = floor
            first = position + (floor_key < key_low)
            per_page = source.source.value_file.pairs_per_page
            saved += first < source.source.num_entries and first // per_page == position // per_page
    return saved


@pytest.mark.parametrize("shape", ["sync", "async", "sharded3"])
def test_read_path_page_reads_are_pinned_and_answers_match_the_oracle(tmp_path, shape):
    engine, pool = _shape_store(str(tmp_path / "ws"), shape)
    try:
        batch = _read_batch(pool)
        pages = _pages_by_kind(engine, batch)
        saved = sum(_seeks_on_seek_page(engine, args[0]) for kind, args in batch if kind == "scan")
        pinned = dict(PINNED_PAGE_READS[shape])
        read_twice, on_seek_page = pinned.pop("scan")
        assert saved == on_seek_page
        assert pages == dict(pinned, scan=read_twice - on_seek_page)
        for kind, args in batch:
            answer = _execute(engine, kind, args)
            if kind == "scan":
                low, at_blk, limit = args
                sources = [source for shard in _shards(engine) for source in shard._read_sources()]
                at = MAX_BLK if at_blk is None else at_blk
                expected = read_oracle.scan(sources, low, b"\xff" * ADDR_SIZE, at, limit, ADDR_SIZE)
            elif kind == "prov":
                owner = engine._shard_for(args[0]) if shape == "sharded3" else engine
                answer = answer.result if shape == "sharded3" else answer
                expected = read_oracle.prov_query(owner, *args)
                assert answer.proof.size_bytes() == expected.proof.size_bytes()
            else:
                owner = engine._shard_for(args[0]) if shape == "sharded3" else engine
                blk = args[1] if kind == "get_at" else MAX_BLK
                expected = read_oracle.lookup(owner._read_sources(), args[0], blk)
            assert answer == expected, (kind, args)
    finally:
        engine.close()


def test_negative_item_header_must_match_its_payload(store):
    cole, _pool, _history = store
    result = cole.prov_query(b"\x01" * ADDR_SIZE, 20, 70)  # absent: runs answer by filter
    root = cole.root_digest()
    assert verify_provenance(result, root, addr_size=ADDR_SIZE) == []
    index, item = next(
        (index, item)
        for index, item in enumerate(result.proof.items)
        if isinstance(item, RunNegativeItem)
    )
    genuine = BloomFilter.from_bytes(item.bloom_bytes)
    assert item.commitment() == hash_concat([item.merkle_root, genuine.digest()])
    header, payload = item.bloom_bytes[:12], item.bloom_bytes[12:]
    forgeries = {
        "longer payload": header + payload + b"\x00",
        "shorter payload": header + payload[:-1],
        "more bits claimed": (genuine.num_bits + 8).to_bytes(4, "big") + header[4:] + payload,
        "truncated header": item.bloom_bytes[:11],
        "no hash functions": header[:4] + b"\x00" * 4 + header[8:] + payload,
        "sub-minimum bits": (3).to_bytes(4, "big") + header[4:] + payload[:1],
    }
    for label, forged_bytes in forgeries.items():
        forged = dataclasses.replace(item, bloom_bytes=forged_bytes)
        with pytest.raises(StorageError):
            forged.commitment()
        with pytest.raises((StorageError, VerificationError)):
            verify_provenance(_replace_item(result, index, forged), root, addr_size=ADDR_SIZE)
    # Well-formed but different: the commitment moves, Hstate no longer matches.
    other_count = header[:8] + (genuine.count + 1).to_bytes(4, "big") + payload
    forged = dataclasses.replace(item, bloom_bytes=other_count)
    assert forged.commitment() != item.commitment()
    with pytest.raises(VerificationError):
        verify_provenance(_replace_item(result, index, forged), root, addr_size=ADDR_SIZE)


def test_verifier_parses_each_disclosed_filter_once(store, monkeypatch):
    cole, _pool, _history = store
    result = cole.prov_query(b"\x01" * ADDR_SIZE, 20, 70)
    root = cole.root_digest()
    negatives = [
        index for index, item in enumerate(result.proof.items)
        if isinstance(item, RunNegativeItem)
    ]
    assert len(negatives) >= 2
    parsed = []
    parse_header = BloomFilter.parse_header
    monkeypatch.setattr(
        BloomFilter, "parse_header", staticmethod(lambda data: parsed.append(data) or parse_header(data))
    )
    monkeypatch.setattr(BloomFilter, "from_bytes", None)  # nothing rebuilds a filter object
    assert verify_provenance(result, root, addr_size=ADDR_SIZE) == []
    assert len(parsed) == len(negatives)
    # Probed in place: a well-formed filter with every bit set holds the
    # address, so the run could not have been skipped for it.
    item = result.proof.items[negatives[0]]
    full = item.bloom_bytes[:12] + b"\xff" * (len(item.bloom_bytes) - 12)
    forged = _replace_item(result, negatives[0], dataclasses.replace(item, bloom_bytes=full))
    with pytest.raises(VerificationError, match="contains the address"):
        verify_provenance(forged, root, addr_size=ADDR_SIZE)


def test_finished_filter_serializes_once_until_an_add():
    bloom = BloomFilter(64, 3)
    bloom.add([b"a"])
    serialized, digest = bloom.to_bytes(), bloom.digest()
    assert bloom.to_bytes() is serialized and bloom.digest() is digest
    assert digest == hashlib.sha256(serialized).digest()
    bloom.add([b"b"])
    assert bloom.to_bytes() != serialized and bloom.digest() != digest
    assert bloom.digest() == hashlib.sha256(bloom.to_bytes()).digest()
    assert BloomFilter.from_bytes(bloom.to_bytes()).to_bytes() == bloom.to_bytes()
