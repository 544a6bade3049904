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
    assert list(vf.iter_entries()) == entries


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 11])
def test_iter_entries_equals_scan_from_zero(tmp_path, system, count):
    # 2 pairs per page: odd counts end on a partial page.
    entries = make_entries(count, system)
    file = open_file(tmp_path, system)
    vf = ValueFile(file, write_value_file(file, entries, system), system)
    before = file.stats.snapshot()
    iterated = list(vf.iter_entries())
    pages_read = file.stats.delta(before).total_reads
    assert iterated == [entry for entry, _position in vf.scan_from(0)] == entries
    assert pages_read == -(-count // system.pairs_per_page)  # one read per page


def test_scan_from_midpoint(tmp_path, system):
    entries = make_entries(10, system)
    file = open_file(tmp_path, system)
    vf = ValueFile(file, write_value_file(file, entries, system), system)
    scanned = list(vf.scan_from(4))
    assert [pos for _e, pos in scanned] == list(range(4, 10))
    assert [e for e, _pos in scanned] == entries[4:]


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
    writer.add(100 * 2**64, b"\x01" * 8)
    with pytest.raises(StorageError):
        writer.add(100 * 2**64, b"\x02" * 8)


def test_wrong_value_size_rejected(tmp_path, system):
    writer = ValueFileWriter(open_file(tmp_path, system), system)
    with pytest.raises(StorageError):
        writer.add(1, b"tiny")


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
