"""Sorted-string tables: immutable sorted runs of the LSM store.

File layout (page granular):

* data pages: packed ``u32 klen || key || u32 vlen || value`` records
  (``vlen == 0xFFFFFFFF`` marks a tombstone);
* one footer page: entry count, data page count;
* sparse index (first key of every data page) and bloom filter are
  rebuilt on open from the data pages — their in-memory footprint is
  registered with the workspace so storage accounting stays honest.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.bloomfilter import BloomFilter
from repro.common.codec import decode_u32, decode_u64, encode_u32, encode_u64
from repro.common.errors import StorageError
from repro.core.merge import merge_newest_first
from repro.diskio.pagefile import PagedFile

TOMBSTONE = 0xFFFFFFFF

Record = Tuple[bytes, Optional[bytes]]  # value None == tombstone


class SSTableWriter:
    """Streaming writer for one sorted run."""

    def __init__(self, file: PagedFile, bloom_bits_per_key: int = 10) -> None:
        self._file = file
        self._page = bytearray()
        self._first_keys: List[bytes] = []
        self._count = 0
        self._last_key: Optional[bytes] = None
        self._records: List[Record] = []
        self._bloom_bits = bloom_bits_per_key
        self._keys_for_bloom: List[bytes] = []

    def add(self, key: bytes, value: Optional[bytes]) -> None:
        """Append one record (keys strictly increasing; None = tombstone)."""
        if self._last_key is not None and key <= self._last_key:
            raise StorageError("sstable keys must be strictly increasing")
        self._last_key = key
        record = _encode_record(key, value)
        if self._page and len(self._page) + len(record) > self._file.page_size:
            self._file.append_page(bytes(self._page))
            self._page.clear()
        if len(record) > self._file.page_size:
            raise StorageError("record larger than a page")
        if not self._page:
            self._first_keys.append(key)
        self._page += record
        self._count += 1
        self._keys_for_bloom.append(key)

    def finish(self) -> "SSTable":
        """Flush, write the footer, and return a reader."""
        if self._page:
            self._file.append_page(bytes(self._page))
            self._page.clear()
        data_pages = self._file.num_pages
        footer = encode_u64(self._count) + encode_u64(data_pages)
        self._file.append_page(footer)
        self._file.flush()
        bloom = BloomFilter.for_capacity(
            max(1, self._count), self._bloom_bits, num_hashes=7
        )
        bloom.add(self._keys_for_bloom)
        return SSTable(self._file, self._count, data_pages, self._first_keys, bloom)


class SSTable:
    """Read access to one sorted run."""

    def __init__(
        self,
        file: PagedFile,
        count: int,
        data_pages: int,
        first_keys: List[bytes],
        bloom: BloomFilter,
    ) -> None:
        self._file = file
        self.count = count
        self.data_pages = data_pages
        self._first_keys = first_keys
        self.bloom = bloom

    @classmethod
    def open(cls, file: PagedFile, bloom_bits_per_key: int = 10) -> "SSTable":
        """Re-open a finished table, rebuilding index and bloom."""
        footer = file.read_page(file.num_pages - 1)
        count = decode_u64(footer, 0)
        data_pages = decode_u64(footer, 8)
        first_keys: List[bytes] = []
        bloom = BloomFilter.for_capacity(max(1, count), bloom_bits_per_key, 7)
        for page_id in range(data_pages):
            records = _decode_page(file.read_page(page_id))
            if records:
                first_keys.append(records[0][0])
            bloom.add([key for key, _value in records])
        return cls(file, count, data_pages, first_keys, bloom)

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Lookup: returns ``(found, value)``; value None == tombstone."""
        if key not in self.bloom:
            return False, None
        page_index = bisect.bisect_right(self._first_keys, key) - 1
        if page_index < 0:
            return False, None
        for record_key, value in _decode_page(self._file.read_page(page_index)):
            if record_key == key:
                return True, value
        return False, None

    def iter_records(self) -> Iterator[Record]:
        """All records in key order (sequential page reads)."""
        for page_id in range(self.data_pages):
            yield from _decode_page(self._file.read_page(page_id))

    def memory_overhead_bytes(self) -> int:
        """In-memory sparse index + bloom (registered with the workspace)."""
        index_bytes = sum(len(key) + 8 for key in self._first_keys)
        return index_bytes + self.bloom.size_bytes()


def _encode_record(key: bytes, value: Optional[bytes]) -> bytes:
    if value is None:
        return encode_u32(len(key)) + key + encode_u32(TOMBSTONE)
    return encode_u32(len(key)) + key + encode_u32(len(value)) + value


def _decode_page(page: bytes) -> List[Record]:
    """A data page's records, up to its zero padding; a record cut short
    raises ``StorageError``.  An offset walk, not a ``Cursor``: every read
    decodes a whole page, and a ``Cursor`` walk doubles that cost."""
    records: List[Record] = []
    offset, size = 0, len(page)
    while offset + 4 <= size:
        klen = decode_u32(page, offset)
        if klen == 0:
            return records  # zero padding reached
        key_end = offset + 4 + klen
        if key_end + 4 > size:
            break
        key, vlen = page[key_end - klen : key_end], decode_u32(page, key_end)
        offset = key_end + 4
        if vlen == TOMBSTONE:
            records.append((key, None))
        elif offset + vlen > size:
            break
        else:
            records.append((key, page[offset : offset + vlen]))
            offset += vlen
    else:
        if not any(page[offset:]):
            return records  # padding shorter than a key length
    raise StorageError(f"sstable record truncated at byte {offset} of {size}")


def merge_tables(tables: List[Iterable[Record]]) -> Iterator[Record]:
    """Merge sorted record streams, newest stream last; newest key wins."""
    return merge_newest_first(tables[::-1])
