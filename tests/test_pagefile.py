"""Unit tests for the paged-file substrate."""

import os

import pytest

from repro.common.errors import StorageError
from repro.diskio.iostats import IOStats
from repro.diskio.pagefile import PagedFile


@pytest.fixture
def pagefile(tmp_path):
    return PagedFile(str(tmp_path / "data.pg"), page_size=256, category="test")


def test_append_returns_sequential_ids(pagefile):
    assert pagefile.append_page(b"a" * 256) == 0
    assert pagefile.append_page(b"b" * 256) == 1
    assert pagefile.num_pages == 2


def test_short_append_is_zero_padded(pagefile):
    pagefile.append_page(b"xy")
    data = pagefile.read_page(0)
    assert data[:2] == b"xy"
    assert data[2:] == b"\x00" * 254


def test_read_round_trip(pagefile):
    payload = bytes(range(256))
    pagefile.append_page(payload)
    assert pagefile.read_page(0) == payload


def test_write_page_overwrites(pagefile):
    pagefile.append_page(b"a" * 256)
    pagefile.write_page(0, b"b" * 256)
    assert pagefile.read_page(0) == b"b" * 256


def test_write_page_requires_full_page(pagefile):
    pagefile.append_page(b"a" * 256)
    with pytest.raises(StorageError):
        pagefile.write_page(0, b"short")


def test_out_of_range_read_raises(pagefile):
    with pytest.raises(StorageError):
        pagefile.read_page(0)


def test_oversized_append_raises(pagefile):
    with pytest.raises(StorageError):
        pagefile.append_page(b"x" * 257)


def test_io_is_counted(tmp_path):
    stats = IOStats()
    file = PagedFile(str(tmp_path / "c.pg"), 128, stats=stats, category="cat")
    file.append_page(b"1")
    file.read_page(0)
    assert stats.page_writes["cat"] == 1
    assert stats.page_reads["cat"] == 1


def test_preallocate_extends_without_io(tmp_path):
    stats = IOStats()
    file = PagedFile(str(tmp_path / "p.pg"), 128, stats=stats)
    file.preallocate(10)
    assert file.num_pages == 10
    assert stats.total == 0
    assert file.read_page(9) == b"\x00" * 128


def test_reopen_existing_file(tmp_path):
    path = str(tmp_path / "r.pg")
    first = PagedFile(path, 128)
    first.append_page(b"persist")
    first.close()
    second = PagedFile(path, 128, create=False)
    assert second.num_pages == 1
    assert second.read_page(0)[:7] == b"persist"


def test_create_refuses_an_existing_file(tmp_path):
    path = str(tmp_path / "x.pg")
    PagedFile(path, 128).close()
    with pytest.raises(StorageError, match=f"already exists: {path}"):
        PagedFile(path, 128)


def test_open_without_create_is_read_only(tmp_path):
    path = str(tmp_path / "ro.pg")
    with PagedFile(path, 128) as writer:
        writer.append_page(b"kept")
    reader = PagedFile(path, 128, create=False)
    for write in (
        lambda: reader.append_page(b"x"),
        lambda: reader.write_page(0, b"y" * 128),
        lambda: reader.preallocate(4),
    ):
        with pytest.raises(OSError):
            write()
    assert reader.num_pages == 1
    assert reader.read_page(0)[:4] == b"kept"
    reader.close()
    assert os.path.getsize(path) == 128


def test_missing_file_without_create_raises(tmp_path):
    with pytest.raises(StorageError):
        PagedFile(str(tmp_path / "nope.pg"), 128, create=False)


def test_closed_file_rejects_io(pagefile):
    pagefile.close()
    with pytest.raises(StorageError):
        pagefile.append_page(b"x")


def test_read_sees_append_without_explicit_flush(pagefile):
    """Writes are unbuffered (positional IO): a pread-based read must
    observe an append immediately, with no user-space buffer between."""
    pagefile.append_page(b"q" * 256)
    assert pagefile.read_page(0) == b"q" * 256
    # And through a second, independent handle on the same path.
    other = PagedFile(pagefile.path, page_size=256, create=False)
    assert other.read_page(0) == b"q" * 256
    other.close()


def test_concurrent_reads_are_exact_without_serializing(tmp_path):
    """Many threads hammering read_page on one shared handle: every
    read byte-exact (positional reads share no file offset)."""
    import threading

    file = PagedFile(str(tmp_path / "c.pg"), page_size=256)
    pages = [bytes([n]) * 256 for n in range(64)]
    for page in pages:
        file.append_page(page)
    errors = []

    def reader(seed):
        import random

        rng = random.Random(seed)
        try:
            for _ in range(2000):
                page_id = rng.randrange(len(pages))
                assert file.read_page(page_id) == pages[page_id]
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(n,)) for n in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors[:3]
    file.close()


def test_size_bytes(pagefile):
    pagefile.append_page(b"x")
    assert pagefile.size_bytes() == 256
    pagefile.flush()
    assert os.path.getsize(pagefile.path) == 256


def test_cache_counters_untouched_when_cache_disabled(tmp_path):
    """With no engine page cache the Table-1 IO accounting counts every
    read, a repeated one too, and the cache summary the perf ledger and
    STATS ``io.page_cache`` read stays all zero."""
    stats = IOStats()
    file = PagedFile(str(tmp_path / "s.pg"), 128, stats=stats, category="v")
    file.append_page(b"a")
    file.read_page(0)
    file.read_page(0)
    assert stats.page_reads["v"] == 2
    assert stats.cache_summary() == {
        "hits": 0, "misses": 0, "lookups": 0, "promotions": 0, "hit_rate": 0.0,
    }
    file.close()
