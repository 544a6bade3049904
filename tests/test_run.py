"""Unit tests for on-disk runs (Algorithm 7 search + provenance scans)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloomfilter import BloomFilter
from repro.common.hashing import hash_concat
from repro.common.params import ColeParams, SystemParams
from repro.core.compound import CompoundKey, addr_of_int
from repro.core.indexfile import IndexFileBuilder
from repro.core.merklefile import MerkleFileBuilder, verify_range_proof
from repro.core.run import BLOOM_BITS_PER_KEY, BLOOM_HASHES, RUN_SUFFIXES, Run
from repro.core.valuefile import ValueFileWriter
from repro.diskio.workspace import Workspace


@pytest.fixture
def params():
    system = SystemParams(addr_size=8, value_size=8, page_size=256)
    return ColeParams(system=system, mem_capacity=16, size_ratio=3, mht_fanout=4)


def make_run(tmp_path, params, entries, name="r0"):
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    return Run.build(ws, name, 1, iter(entries), len(entries), params)


def make_entries(params, num_addrs=10, versions=5, seed=2):
    rng = random.Random(seed)
    addrs = sorted(rng.randbytes(params.system.addr_size) for _ in range(num_addrs))
    entries = []
    for addr in addrs:
        for blk in range(1, versions + 1):
            key = CompoundKey(addr=addr, blk=blk).to_int()
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
    sentinel = CompoundKey.latest_of(addrs[3]).to_int()
    (key, _value), _pos = run.floor_search(sentinel)
    assert CompoundKey.from_int(key, params.system.addr_size).addr == addrs[3]
    assert CompoundKey.from_int(key, params.system.addr_size).blk == 5


def test_floor_before_run_returns_none(tmp_path, params):
    entries, _addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    assert run.floor_search(entries[0][0] - 1) is None


def test_bloom_filters_unknown_addresses(tmp_path, params):
    entries, addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    assert all(run.may_contain(addr) for addr in addrs)
    rng = random.Random(99)
    misses = sum(
        1 for _ in range(100) if run.may_contain(rng.randbytes(params.system.addr_size))
    )
    assert misses < 20


def test_commitment_binds_bloom(tmp_path, params):
    entries, _addrs = make_entries(params)
    run = make_run(tmp_path, params, entries)
    base = run.commitment()
    run.bloom.add(b"\xee" * params.system.addr_size)
    assert run.commitment() != base


def test_prov_scan_discloses_boundaries(tmp_path, params):
    entries, addrs = make_entries(params, versions=6)
    run = make_run(tmp_path, params, entries)
    addr = addrs[4]
    key_low = CompoundKey(addr=addr, blk=2).to_int()
    key_high = CompoundKey(addr=addr, blk=4).to_int()
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
        Run.build(ws, "bad", 1, iter(entries), len(entries) + 5, params)


def test_run_load_round_trip(tmp_path, params):
    entries, addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws3"), params.system.page_size)
    built = Run.build(ws, "persist", 1, iter(entries), len(entries), params)
    loaded = Run.load(ws, "persist", 1, len(entries), params, built.merkle_root)
    assert loaded.commitment() == built.commitment()
    sentinel = CompoundKey.latest_of(addrs[0]).to_int()
    assert loaded.floor_search(sentinel) == built.floor_search(sentinel)


def test_run_delete_removes_files(tmp_path, params):
    entries, _addrs = make_entries(params)
    ws = Workspace(str(tmp_path / "ws4"), params.system.page_size)
    run = Run.build(ws, "victim", 1, iter(entries), len(entries), params)
    assert run.storage_bytes() > 0
    run.delete()
    assert run.storage_bytes() == 0


def test_large_run_search_io_is_bounded(tmp_path, params):
    entries, addrs = make_entries(params, num_addrs=60, versions=20, seed=5)
    ws = Workspace(str(tmp_path / "ws5"), params.system.page_size)
    run = Run.build(ws, "big", 2, iter(entries), len(entries), params)
    stats = ws.stats
    before = stats.snapshot()
    sentinel = CompoundKey.latest_of(addrs[30]).to_int()
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


@pytest.mark.parametrize("fault", ["short", "long", "unsorted", "bad-value", "sink-raises"])
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
    else:
        error = OSError

        def full_disk(self):
            raise OSError("disk full")

        monkeypatch.setattr(MerkleFileBuilder, "finish", full_disk)
    with pytest.raises(error):
        Run.build(ws, "retry", 1, iter(stream), declared, params)
    monkeypatch.undo()
    assert _run_files(ws, "retry") == []
    # ... and no stale handle either: the same name builds cleanly.
    rebuilt = Run.build(ws, "retry", 1, iter(entries), len(entries), params)
    assert sorted(_run_files(ws, "retry")) == sorted("retry" + s for s in RUN_SUFFIXES)
    assert list(rebuilt.value_file.iter_entries()) == entries
    other = Workspace(str(tmp_path / "other"), params.system.page_size)
    clean = Run.build(other, "retry", 1, iter(entries), len(entries), params)
    assert rebuilt.commitment() == clean.commitment()


# -- same bytes, fewer calls ----------------------------------------------------


def build_per_entry(ws, name, entries, params):
    """The run builder as it was before it batched: one ``add`` per entry
    on every sink.  Returns the run's commitment."""
    system = params.system
    value_writer = ValueFileWriter(ws.open_file(f"{name}.val", category="value"), system)
    index_builder = IndexFileBuilder(ws.open_file(f"{name}.idx", category="index"), system)
    merkle_builder = MerkleFileBuilder(
        ws.open_file(f"{name}.mrk", category="merkle"),
        len(entries), params.mht_fanout, system.key_size,
    )
    bloom = BloomFilter.for_capacity(len(entries), BLOOM_BITS_PER_KEY, BLOOM_HASHES)

    def tee():
        for key, value in entries:
            position = value_writer.add(key, value)
            merkle_builder.add(key, value)
            bloom.add(addr_of_int(key, system.addr_size))
            yield key, position

    index_builder.add_bottom_models(tee())
    assert value_writer.finish() == len(entries)
    index_builder.finish()
    merkle_root = merkle_builder.finish()
    with open(ws.path_of(f"{name}.blm"), "wb") as handle:
        handle.write(bloom.to_bytes())
    ws.flush_all()
    return hash_concat([merkle_root, bloom.digest()])


@st.composite
def run_geometries(draw):
    addr_size = draw(st.integers(min_value=1, max_value=12))
    value_size = draw(st.integers(min_value=1, max_value=24))
    pair_size = addr_size + 8 + value_size
    pairs_per_page = draw(st.integers(min_value=2, max_value=9))
    slack = draw(st.integers(min_value=0, max_value=pair_size - 1))
    # The Merkle file packs whole 32-byte hashes; the page must hold some.
    page_size = max(64, pairs_per_page * pair_size + slack)
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
    system = params.system
    rng = random.Random(seed)
    keys = set()
    while len(keys) < count:
        addr = rng.randbytes(system.addr_size)
        first = rng.randint(0, 2**64 - versions)
        for blk in range(first, first + versions):
            keys.add(CompoundKey(addr=addr, blk=blk).to_int())
    entries = [(key, rng.randbytes(system.value_size)) for key in sorted(keys)[:count]]

    ws = Workspace(str(tmp_path_factory.mktemp("diff")), system.page_size)
    run = Run.build(ws, "batched", 1, iter(entries), len(entries), params)
    ws.flush_all()
    assert build_per_entry(ws, "single", entries, params) == run.commitment()
    for suffix in RUN_SUFFIXES:
        with open(ws.path_of("batched" + suffix), "rb") as batched:
            with open(ws.path_of("single" + suffix), "rb") as single:
                assert batched.read() == single.read(), suffix
    assert list(run.value_file.iter_entries()) == entries
    assert run.merkle_file.root() == run.merkle_root
    ws.close()
