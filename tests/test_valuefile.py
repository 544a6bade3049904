"""Unit tests for value files."""

import pytest

from repro.common.errors import StorageError
from repro.common.params import SystemParams
from repro.core.valuefile import ValueFile, ValueFileWriter, write_value_file
from repro.diskio.pagefile import PagedFile


@pytest.fixture
def system():
    # Tiny pages so multi-page behaviour appears with few entries.
    return SystemParams(addr_size=8, value_size=8, page_size=64)


def make_entries(count, system):
    return [(i * 2**64 + 1, i.to_bytes(system.value_size, "big")) for i in range(1, count + 1)]


def iter_entries(vf, system):
    """Every pair of ``vf`` in file order, decoded."""
    key_size = system.key_size
    return [(int.from_bytes(pair[:key_size], "big"), pair[key_size:]) for pair in vf.iter_pairs()]


def open_file(tmp_path, system, name="v.val"):
    return PagedFile(str(tmp_path / name), system.page_size)


def test_write_and_read_back(tmp_path, system):
    entries = make_entries(20, system)
    file = open_file(tmp_path, system)
    count = write_value_file(file, entries, system)
    assert count == 20
    vf = ValueFile(file, count, system)
    assert [vf.entry_at(i) for i in range(20)] == entries


def test_pairs_per_page_geometry(system):
    assert system.pair_size == 24
    assert system.pairs_per_page == 2  # 64-byte page
    assert system.epsilon == 1


def test_iter_entries(tmp_path, system):
    entries = make_entries(9, system)
    file = open_file(tmp_path, system)
    vf = ValueFile(file, write_value_file(file, entries, system), system)
    assert iter_entries(vf, system) == entries


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 11])
def test_iter_entries_equals_scan_from_zero(tmp_path, system, count):
    # 2 pairs per page: odd counts end on a partial page.
    entries = make_entries(count, system)
    file = open_file(tmp_path, system)
    vf = ValueFile(file, write_value_file(file, entries, system), system)
    before = file.stats.snapshot()
    iterated = iter_entries(vf, system)
    pages_read = file.stats.delta(before).total_reads
    assert iterated == list(vf.scan_from(0)) == entries
    assert pages_read == -(-count // system.pairs_per_page)  # one read per page


def test_scan_from_midpoint(tmp_path, system):
    entries = make_entries(10, system)
    file = open_file(tmp_path, system)
    vf = ValueFile(file, write_value_file(file, entries, system), system)
    for position in range(11):
        assert list(vf.scan_from(position)) == entries[position:]
    # A page the caller holds is the scan's first page, not read again.
    before = file.stats.snapshot()
    page = file.read_page(2)
    assert list(vf.scan_from(5, page)) == entries[5:]
    assert file.stats.delta(before).total_reads == 1 + 2  # pages 3 and 4 only
    before = file.stats.snapshot()
    assert list(vf.scan_from(10)) == []
    assert file.stats.delta(before).total_reads == 0


def test_floor_in_page(tmp_path, system):
    entries = make_entries(6, system)
    file = open_file(tmp_path, system)
    vf = ValueFile(file, write_value_file(file, entries, system), system)
    entry, position = vf.floor_in_page(0, entries[1][0])
    assert entry == entries[1]
    assert position == 1
    assert vf.floor_in_page(0, entries[0][0] - 1) is None


def test_non_increasing_keys_rejected(tmp_path, system):
    writer = ValueFileWriter(open_file(tmp_path, system), system)
    key = (100 * 2**64).to_bytes(system.key_size, "big")
    writer.add([key + b"\x01" * 8])
    with pytest.raises(StorageError):
        writer.add([key + b"\x02" * 8])


def test_wrong_value_size_rejected(tmp_path, system):
    writer = ValueFileWriter(open_file(tmp_path, system), system)
    with pytest.raises(StorageError):
        writer.add([(1).to_bytes(system.key_size, "big") + b"tiny"])


def test_out_of_range_position(tmp_path, system):
    file = open_file(tmp_path, system)
    vf = ValueFile(file, write_value_file(file, make_entries(3, system), system), system)
    with pytest.raises(StorageError):
        vf.entry_at(3)


def test_partial_last_page(tmp_path, system):
    entries = make_entries(5, system)  # 2 per page -> 3 pages, last partial
    file = open_file(tmp_path, system)
    vf = ValueFile(file, write_value_file(file, entries, system), system)
    last_page = vf.read_page_entries(2)
    assert last_page == entries[4:]
