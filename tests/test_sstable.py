"""Unit tests for sorted-string tables."""

import pytest

from repro.common.errors import StorageError
from repro.diskio.pagefile import PagedFile
from repro.kvstore.sstable import SSTable, SSTableWriter, merge_tables


def build_table(tmp_path, records, name="t.sst", page_size=256):
    file = PagedFile(str(tmp_path / name), page_size)
    writer = SSTableWriter(file)
    for key, value in records:
        writer.add(key, value)
    return writer.finish()


def test_write_and_get(tmp_path):
    records = [(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(50)]
    table = build_table(tmp_path, records)
    for key, value in records:
        assert table.get(key) == (True, value)


def test_missing_key(tmp_path):
    table = build_table(tmp_path, [(b"a", b"1"), (b"c", b"3")])
    assert table.get(b"b") == (False, None)
    assert table.get(b"z") == (False, None)


def test_tombstones_round_trip(tmp_path):
    table = build_table(tmp_path, [(b"dead", None), (b"live", b"x")])
    assert table.get(b"dead") == (True, None)
    assert table.get(b"live") == (True, b"x")


def test_iter_records_sorted(tmp_path):
    records = [(f"{i:04d}".encode(), bytes([i % 250])) for i in range(300)]
    table = build_table(tmp_path, records)
    assert list(table.iter_records()) == records


def test_keys_must_increase(tmp_path):
    file = PagedFile(str(tmp_path / "bad.sst"), 256)
    writer = SSTableWriter(file)
    writer.add(b"b", b"1")
    with pytest.raises(StorageError):
        writer.add(b"a", b"2")
    with pytest.raises(StorageError):
        writer.add(b"b", b"3")


def test_record_larger_than_page_rejected(tmp_path):
    file = PagedFile(str(tmp_path / "big.sst"), 64)
    writer = SSTableWriter(file)
    with pytest.raises(StorageError):
        writer.add(b"k", b"v" * 100)


def test_reopen_rebuilds_index_and_bloom(tmp_path):
    records = [(f"k{i:03d}".encode(), f"v{i}".encode()) for i in range(40)]
    path = str(tmp_path / "ro.sst")
    file = PagedFile(path, 256)
    writer = SSTableWriter(file)
    for key, value in records:
        writer.add(key, value)
    original = writer.finish()
    file.close()
    reopened = SSTable.open(PagedFile(path, 256, create=False))
    assert reopened.count == original.count
    for key, value in records:
        assert reopened.get(key) == (True, value)


def test_merge_tables_newest_wins():
    older = [(b"a", b"1"), (b"b", b"old")]
    newer = [(b"b", b"new"), (b"c", b"3")]
    merged = list(merge_tables([older, newer]))
    assert merged == [(b"a", b"1"), (b"b", b"new"), (b"c", b"3")]


def test_merge_tables_with_tombstones():
    older = [(b"a", b"1")]
    newer = [(b"a", None)]
    assert list(merge_tables([older, newer])) == [(b"a", None)]
