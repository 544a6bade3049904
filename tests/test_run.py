"""Unit tests for on-disk runs (Algorithm 7 search + provenance scans)."""

import random
import types
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import write_oracle
from repro.common.errors import StorageError
from repro.common.hashing import DIGEST_SIZE, hash_bytes
from repro.common.params import ColeParams, SystemParams
from repro.core.compound import MAX_BLK, blk_of_int, compound_key
from repro.core.merge import MergeScheduler, merge_entry_streams
from repro.core.merklefile import (
    MerkleFileBuilder,
    layer_offsets,
    layer_sizes,
    verify_range_proof,
)
from repro.core.rewind import _filter_run
from repro.core.run import RUN_SUFFIXES, Run, encode_pairs
from repro.core.storage import execute
from repro.diskio import durable
from repro.diskio.workspace import Workspace
from repro.learned.model import Model


@pytest.fixture
def params():
    system = SystemParams(addr_size=8, value_size=8, page_size=256)
    return ColeParams(system=system, mem_capacity=16, size_ratio=3, mht_fanout=4)


def build(ws, name, entries, params, level=1, declared=None):
    """``Run.build`` over the encoded pairs of decoded ``entries``."""
    pairs = encode_pairs(entries, params.system.key_size)
    count = len(entries) if declared is None else declared
    return Run.build(ws, name, level, iter(pairs), count, params)


def decoded(run):
    key_size = run.params.system.key_size
    return [
        (int.from_bytes(pair[:key_size], "big"), pair[key_size:])
        for pair in run.value_file.iter_pairs()
    ]


def make_run(tmp_path, params, entries, name="r0"):
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    return build(ws, name, entries, params)


def make_entries(params, num_addrs=10, versions=5, seed=2):
    rng = random.Random(seed)
    addrs = sorted(rng.randbytes(params.system.addr_size) for _ in range(num_addrs))
    entries = []
    for addr in addrs:
        for blk in range(1, versions + 1):
            key = compound_key(addr, blk)
            entries.append((key, rng.randbytes(params.system.value_size)))
    return sorted(entries), addrs


def test_build_and_floor_search(tmp_path, params):
    entries, addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    assert run.num_entries == len(entries)
    for key, value in entries:
        found = run.floor_search(key)
        assert found is not None
        assert found[0] == (key, value)


def test_floor_search_latest_version(tmp_path, params):
    entries, addrs = make_entries(params, versions=5)
    run = make_run(tmp_path, params, entries)
    sentinel = compound_key(addrs[3], MAX_BLK)
    (key, _value), _pos = run.floor_search(sentinel)
    assert key >> 64 == int.from_bytes(addrs[3], "big")
    assert blk_of_int(key) == 5


def test_floor_before_run_returns_none(tmp_path, params):
    entries, _addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    assert run.floor_search(entries[0][0] - 1) is None


def test_bloom_filters_unknown_addresses(tmp_path, params):
    entries, addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    assert all(addr in run.bloom for addr in addrs)
    rng = random.Random(99)
    misses = sum(
        1 for _ in range(100) if rng.randbytes(params.system.addr_size) in run.bloom
    )
    assert misses < 20


def test_commitment_binds_bloom(tmp_path, params):
    entries, _addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    base = run.commitment()
    run.bloom.add([b"\xee" * params.system.addr_size])
    assert run.commitment() != base


def test_prov_scan_discloses_boundaries(tmp_path, params):
    entries, addrs = make_entries(params, versions=6)
    run = make_run(tmp_path, params, entries)
    addr = addrs[4]
    key_low = compound_key(addr, 2)
    key_high = compound_key(addr, 4)
    scan = run.prov_scan(key_low, key_high)
    disclosed_keys = [key for key, _value in scan.entries]
    assert disclosed_keys[0] <= key_low
    assert disclosed_keys[-1] > key_high or scan.hi == run.num_entries - 1
    verify_range_proof(scan.entries, scan.proof, run.merkle_file.root(), params.system.key_size)


def test_prov_scan_entire_run(tmp_path, params):
    entries, addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    scan = run.prov_scan(entries[0][0], entries[-1][0])
    assert scan.lo == 0
    assert scan.hi == run.num_entries - 1
    assert scan.entries == entries


def test_run_count_mismatch_rejected(tmp_path, params):
    from repro.common.errors import StorageError

    entries, _addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws2"), params.system.page_size)
    with pytest.raises(StorageError):
        build(ws, "bad", entries, params, declared=len(entries) + 5)


def test_run_load_round_trip(tmp_path, params):
    entries, addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws3"), params.system.page_size)
    built = build(ws, "persist", entries, params)
    loaded = Run.load(ws, "persist", 1, len(entries), params, built.merkle_root)
    assert loaded.commitment() == built.commitment()
    sentinel = compound_key(addrs[0], MAX_BLK)
    assert loaded.floor_search(sentinel) == built.floor_search(sentinel)


def test_run_delete_removes_files(tmp_path, params):
    entries, _addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws4"), params.system.page_size)
    run = build(ws, "victim", entries, params)
    assert run.storage_bytes() > 0
    run.delete()
    assert run.storage_bytes() == 0


def test_large_run_search_io_is_bounded(tmp_path, params):
    entries, addrs = make_entries(params, num_addrs=60, versions=20, seed=5)
    ws = Workspace(str(tmp_path / "ws5"), params.system.page_size)
    run = build(ws, "big", entries, params, level=2)
    stats = ws.stats
    before = stats.snapshot()
    sentinel = compound_key(addrs[30], MAX_BLK)
    assert run.floor_search(sentinel) is not None
    delta = stats.delta(before)
    # Table 1's Cmodel: one or two pages per index layer, then the
    # predicted value page or that and a neighbour — each read once.
    assert delta.page_reads["index"] <= 2 * run.index_file.num_layers
    assert delta.page_reads["value"] <= 2
    assert delta.total_reads == delta.page_reads["index"] + delta.page_reads["value"]


# -- a failed build leaves nothing behind ----------------------------------------


def _run_files(ws, name):
    return [found for found in ws.list_files() if found.startswith(name + ".")]


@pytest.mark.parametrize(
    "fault", ["short", "long", "unsorted", "bad-value", "sink-raises", "fsync-raises"]
)
def test_failed_build_removes_partial_artifacts(tmp_path, params, monkeypatch, fault):
    from repro.common.errors import StorageError

    entries, _addrs = make_entries(params, num_addrs=20)  # several value pages
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    stream, declared, error = list(entries), len(entries), StorageError
    if fault == "short":
        declared += 5
    elif fault == "long":
        declared -= 5
    elif fault == "unsorted":
        stream[-1], stream[-2] = stream[-2], stream[-1]
    elif fault == "bad-value":
        stream[-1] = (stream[-1][0], b"tiny")
    elif fault == "sink-raises":
        error = OSError

        def full_disk(self):
            raise OSError("disk full")

        monkeypatch.setattr(MerkleFileBuilder, "finish", full_disk)
    else:
        error = OSError

        def io_error(path):
            raise OSError("fsync: input/output error")

        monkeypatch.setattr(durable, "fsync", io_error)
    with pytest.raises(error):
        build(ws, "retry", stream, params, declared=declared)
    monkeypatch.undo()
    assert _run_files(ws, "retry") == []
    # ... and no stale handle either: the same name builds cleanly.
    rebuilt = build(ws, "retry", entries, params)
    assert sorted(_run_files(ws, "retry")) == sorted("retry" + s for s in RUN_SUFFIXES)
    assert decoded(rebuilt) == entries
    other = Workspace(str(tmp_path / "other"), params.system.page_size)
    clean = build(other, "retry", entries, params)
    assert rebuilt.commitment() == clean.commitment()


def test_build_onto_an_existing_run_name_raises_and_leaves_its_files(tmp_path, params):
    entries, _addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    build(ws, "taken", entries, params)

    def contents():
        out = {}
        for name in _run_files(ws, "taken"):
            with open(ws.path_of(name), "rb") as handle:
                out[name] = handle.read()
        return out

    before = contents()
    assert sorted(before) == sorted("taken" + s for s in RUN_SUFFIXES)
    others, _addrs = make_entries(params, seed=3)
    # The builder's workspace holds the name as a cached handle, a second
    # workspace on the same directory finds the file on disk: both refuse.
    for target in (ws, Workspace(ws.root, params.system.page_size)):
        with pytest.raises(StorageError, match="already exists"):
            build(target, "taken", others, params)
        assert contents() == before


# -- page geometry ----------------------------------------------------------------


def smallest_page(key_size, pair_size):
    """The smallest page a run accepts: two pairs, two index model records
    and two Merkle hashes."""
    return max(2 * pair_size, 2 * Model.record_size(key_size), 2 * DIGEST_SIZE)


@pytest.mark.parametrize(
    "addr_size, value_size, page_size, refused",
    [
        (2, 1, 64, "a 64-byte index page holds fewer than two 34-byte model records"),
        (20, 40, 96, "a 96-byte value page holds fewer than two 68-byte pairs"),
    ],
)
def test_a_page_too_small_for_two_records_is_refused_before_a_page_is_written(
    tmp_path, addr_size, value_size, page_size, refused
):
    system = SystemParams(addr_size=addr_size, value_size=value_size, page_size=page_size)
    params = ColeParams(system=system)
    entries = random_entries(system, 300, 1, random.Random(3))
    ws = Workspace(str(tmp_path / "ws"), page_size)
    with pytest.raises(StorageError, match=refused):
        build(ws, "tiny", entries, params)
    assert _run_files(ws, "tiny") == []
    assert smallest_page(system.key_size, system.pair_size) > page_size


def test_floor_search_at_the_smallest_page_finds_every_key(tmp_path):
    system = SystemParams(addr_size=2, value_size=1, page_size=68)
    assert smallest_page(system.key_size, system.pair_size) == 68
    rng = random.Random(0)
    keys = [0]
    while len(keys) < 600:  # gaps of every magnitude: many models per layer
        keys.append(keys[-1] + (1 << rng.randrange(8 * system.key_size - 13)) + rng.randrange(3))
    entries = [(key, rng.randbytes(system.value_size)) for key in keys]
    run = make_run(tmp_path, ColeParams(system=system), entries)
    assert (run.index_file.models_per_page, run.index_file.num_layers) == (2, 3)
    for position, entry in enumerate(entries):
        assert run.floor_search(entry[0]) == (entry, position)


# -- the encoded build against the decoded reference -----------------------------


def assert_matches_reference(ws, run, entries, params):
    """``run``'s four files and commitment are those the decoded reference
    builder (``tests/write_oracle.py``) writes for ``entries``."""
    files, commitment = write_oracle.reference_run(entries, params)
    for suffix in RUN_SUFFIXES:
        with open(ws.path_of(run.name + suffix), "rb") as handle:
            assert handle.read() == files[suffix], suffix
    assert run.commitment() == commitment
    assert run.merkle_file.root() == run.merkle_root
    assert decoded(run) == entries


def random_entries(system, count, versions, rng):
    """``count`` sorted entries, ``versions`` adjacent heights per address."""
    keys = set()
    while len(keys) < count:
        addr = rng.randbytes(system.addr_size)
        first = rng.randint(0, 2**64 - versions)
        for blk in range(first, first + versions):
            keys.add(compound_key(addr, blk))
    return [(key, rng.randbytes(system.value_size)) for key in sorted(keys)[:count]]


@st.composite
def run_geometries(draw):
    addr_size = draw(st.integers(min_value=1, max_value=12))
    value_size = draw(st.integers(min_value=1, max_value=24))
    pair_size = addr_size + 8 + value_size
    pairs_per_page = draw(st.integers(min_value=2, max_value=9))
    slack = draw(st.integers(min_value=0, max_value=pair_size - 1))
    page_size = max(smallest_page(addr_size + 8, pair_size), pairs_per_page * pair_size + slack)
    system = SystemParams(addr_size=addr_size, value_size=value_size, page_size=page_size)
    page = system.pairs_per_page
    count = draw(
        st.one_of(
            st.sampled_from([1, page - 1, page, page + 1, 3 * page, 3 * page + 1]),
            st.integers(min_value=1, max_value=12 * page),
        )
    )
    fanout = draw(st.integers(min_value=2, max_value=6))
    versions = draw(st.integers(min_value=1, max_value=4))  # adjacent duplicate addresses
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return ColeParams(system=system, mht_fanout=fanout), max(1, count), versions, seed


@settings(max_examples=60, deadline=None)
@given(run_geometries())
def test_batched_build_is_byte_identical_to_per_entry_build(tmp_path_factory, geometry):
    params, count, versions, seed = geometry
    entries = random_entries(params.system, count, versions, random.Random(seed))
    ws = Workspace(str(tmp_path_factory.mktemp("diff")), params.system.page_size)
    assert_matches_reference(ws, build(ws, "batched", entries, params), entries, params)
    ws.close()


def _ends_a_layer_on_a_page(count, fanout, per_page, layer):
    sizes = layer_sizes(count, fanout)
    layer = min(layer, len(sizes) - 1)
    return (layer_offsets(sizes)[layer] + sizes[layer]) % per_page == 0


@st.composite
def packed_geometries(draw):
    """Pages of 68-256 bytes (2-8 hashes; 68 is the smallest holding two
    index model records), fanout 2-8, and a run of one entry, of any
    size, or whose MHT layer 0, 1 or 2 ends on a page end."""
    value_size = draw(st.integers(min_value=1, max_value=8))
    key_size = 2 + 8  # addr_size=2
    page_size = max(smallest_page(key_size, key_size + value_size),
                    draw(st.integers(min_value=64, max_value=256)))
    fanout = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(["one", "page-end", "any"]))
    count = 1 if kind == "one" else draw(st.integers(min_value=1, max_value=120))
    if kind == "page-end":
        layer = draw(st.integers(min_value=0, max_value=2))
        while not _ends_a_layer_on_a_page(count, fanout, page_size // DIGEST_SIZE, layer):
            count += 1
    system = SystemParams(addr_size=2, value_size=value_size, page_size=page_size)
    return ColeParams(system=system, mht_fanout=fanout), count, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(packed_geometries())
def test_packed_layout_matches_the_oracle_and_proofs_read_a_page_once(
    tmp_path_factory, geometry
):
    params, count, seed = geometry
    rng = random.Random(seed)
    entries = random_entries(params.system, count, 1, rng)
    ws = Workspace(str(tmp_path_factory.mktemp("packed")), params.system.page_size)
    run = build(ws, "packed", entries, params)
    files, _commitment = write_oracle.reference_run(entries, params)
    for suffix in (".mrk", ".idx"):
        with open(ws.path_of("packed" + suffix), "rb") as handle:
            assert handle.read() == files[suffix], suffix
    leaves = [hash_bytes(pair) for pair in encode_pairs(entries, params.system.key_size)]
    layers = write_oracle.mht_layers(leaves, params.mht_fanout)
    assert [
        [run.merkle_file.hash_at(layer, index) for index in range(len(hashes))]
        for layer, hashes in enumerate(layers)
    ] == layers
    mrk = ws.open_file("packed.mrk", category="merkle", create=False)
    read = mrk.read_page
    pages = []
    mrk.read_page = lambda page_id: pages.append(page_id) or read(page_id)
    ranges = [(lo, lo) for lo in range(count)] + [(0, count - 1)]
    ranges += [tuple(sorted(rng.sample(range(count), 2))) for _ in range(8) if count > 1]
    for lo, hi in ranges:
        pages.clear()
        proof = run.merkle_file.prove_range(lo, hi)
        assert len(pages) == len(set(pages)), (lo, hi, pages)
        verify_range_proof(entries[lo : hi + 1], proof, run.merkle_root, params.system.key_size)
    ws.close()


@settings(max_examples=25, deadline=None)
@given(run_geometries(), st.integers(min_value=1, max_value=8))
def test_merged_build_keeps_the_newest_version_of_a_shared_key(
    tmp_path_factory, geometry, shared
):
    params, count, versions, seed = geometry
    system = params.system
    rng = random.Random(seed)
    older = random_entries(system, count, versions, rng)
    # The newer run repeats some of the older run's compound keys with
    # other values, so the merge has to pick the newest of each.
    repeated = rng.sample(older, min(shared, len(older)))
    newer = dict(random_entries(system, count, versions, rng))
    newer.update((key, bytes(byte ^ 0xFF for byte in value)) for key, value in repeated)
    live = dict(older)
    live.update(newer)
    expect = sorted(live.items())

    ws = Workspace(str(tmp_path_factory.mktemp("merge")), system.page_size)
    sources = [build(ws, "old", older, params), build(ws, "new", sorted(newer.items()), params)]
    merged = merge_entry_streams(
        [source.value_file.iter_pairs() for source in sources], system.key_size
    )  # oldest first
    run = Run.build(ws, "merged", 2, merged, len(expect), params)
    assert_matches_reference(ws, run, expect, params)
    ws.close()


@settings(max_examples=25, deadline=None)
@given(run_geometries(), st.data())
def test_rewind_rebuild_matches_the_reference(tmp_path_factory, geometry, data):
    params, count, versions, seed = geometry
    entries = random_entries(params.system, count, versions, random.Random(seed))
    heights = [key & (2**64 - 1) for key, _value in entries]
    target = data.draw(st.one_of(st.sampled_from(heights), st.just(2**64)), label="target")
    expect = [(key, value) for key, value in entries if key & (2**64 - 1) <= target]

    ws = Workspace(str(tmp_path_factory.mktemp("rewind")), params.system.page_size)
    run = build(ws, "before", entries, params)
    cole = types.SimpleNamespace(
        params=params, _next_run_name=lambda level: "rewound",
        scheduler=MergeScheduler(partial(execute, ws, params), inline=True),
    )
    kept, removed, replaced = _filter_run(cole, run, target)
    assert removed == len(entries) - len(expect)
    if not removed:
        assert (kept, replaced) == (run, None)
    elif not expect:
        assert (kept, replaced) == (None, run)
    else:
        assert replaced is run
        assert_matches_reference(ws, kept, expect, params)
    ws.close()
