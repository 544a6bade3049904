"""Value files: the sorted compound key-value pairs of one run (Section 3.2).

Pairs are fixed-width (``addr || blk || value``) and packed
``pairs_per_page`` to a page, so position ``p`` lives on page
``p // pairs_per_page`` — exactly the geometry the learned models' error
bound ε is derived from (2ε = one page of pairs).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.codec import clamp_key, floor_slot
from repro.common.errors import StorageError
from repro.common.params import SystemParams
from repro.diskio.pagefile import PagedFile

Entry = Tuple[int, bytes]  # (compound key as big int, value bytes)


class ValueFileWriter:
    """Streaming writer: appends sorted pairs page by page."""

    def __init__(self, file: PagedFile, params: SystemParams) -> None:
        self._file = file
        self._key_size = params.key_size
        self._pair_size = params.pair_size
        if params.pairs_per_page < 2:  # the learned models' epsilon would be 0
            raise StorageError(
                f"a {params.page_size}-byte value page holds fewer than two "
                f"{params.pair_size}-byte pairs"
            )
        self._page_bytes = params.pairs_per_page * params.pair_size
        self._buffer = bytearray()
        self._count = 0
        self._last_key = b""  # encoded; sorts before every real key

    def add(self, pairs: Sequence[bytes]) -> None:
        """Append encoded pairs (``key.to_bytes(key_size) || value``), one
        page's worth from the run builder, any count from other callers.

        Fixed-width big-endian keys order as bytes exactly as they do as
        integers, so the increasing check runs on the encoded prefix.
        """
        key_size = self._key_size
        pair_size = self._pair_size
        last_key = self._last_key
        for pair in pairs:
            if len(pair) != pair_size:
                raise StorageError(
                    f"value must be {pair_size - key_size} bytes, "
                    f"got {len(pair) - key_size}"
                )
            key = pair[:key_size]
            if key <= last_key:
                raise StorageError("value file pairs must be strictly increasing")
            last_key = key
        self._last_key = last_key
        self._count += len(pairs)
        buffer = self._buffer
        buffer += b"".join(pairs)
        page_bytes = self._page_bytes
        while len(buffer) >= page_bytes:
            self._file.append_page(bytes(buffer[:page_bytes]))
            del buffer[:page_bytes]

    def finish(self) -> int:
        """Flush the trailing partial page; returns the total pair count."""
        if self._buffer:
            self._file.append_page(bytes(self._buffer))
            self._buffer.clear()
        self._file.flush()
        return self._count


class ValueFile:
    """Read access to a finished value file of ``num_entries`` pairs.

    Decoding is deliberately lazy: page reads return raw bytes, and
    pairs are materialized one slot at a time only when a caller
    consumes them.  Floor searches binary-search the *raw* page's key
    bytes and decode only the hit — page decode was the dominant cost of
    the whole read path.
    """

    def __init__(self, file: PagedFile, num_entries: int, params: SystemParams) -> None:
        self._file = file
        self._params = params
        self.num_entries = num_entries
        # Hoisted off every decode: the frozen-dataclass properties cost
        # a call per access, and a scan decodes many pairs.
        self._pairs_per_page = params.pairs_per_page
        self._pair_size = params.pair_size
        self._key_size = params.key_size

    @property
    def pairs_per_page(self) -> int:
        """Pairs per page (``2ε``)."""
        return self._pairs_per_page

    def page_of(self, position: int) -> int:
        """Page id holding the pair at ``position``."""
        return position // self._pairs_per_page

    def _page_count(self, page_id: int) -> int:
        """Number of pairs stored on ``page_id``."""
        return min(self._pairs_per_page, self.num_entries - page_id * self._pairs_per_page)

    def _slot_entry(self, data: bytes, slot: int) -> Entry:
        offset = slot * self._pair_size
        return (
            int.from_bytes(data[offset : offset + self._key_size], "big"),
            data[offset + self._key_size : offset + self._pair_size],
        )

    def read_page_entries(self, page_id: int) -> List[Entry]:
        """Decode all pairs stored on ``page_id`` (one page read)."""
        data = self._file.read_page(page_id)
        count = self._page_count(page_id)
        if count <= 0:
            raise StorageError(f"page {page_id} has no entries")
        return [self._slot_entry(data, slot) for slot in range(count)]

    def entry_at(self, position: int) -> Entry:
        """The pair at ``position`` (one page read, minus cache hits)."""
        if not 0 <= position < self.num_entries:
            raise StorageError(f"position {position} out of range")
        data = self._file.read_page(self.page_of(position))
        return self._slot_entry(data, position % self._pairs_per_page)

    def floor_page(self, predicted: int, key: bytes) -> Optional[Tuple[int, bytes]]:
        """``(page_id, data)`` of the page holding the largest pair with
        pair key <= the encoded ``key``, stepping from the page of the
        ``predicted`` position (:meth:`PagedFile.floor_page`); every page
        read once."""
        return self._file.floor_page(
            0, self.num_entries, self._pairs_per_page, self._pair_size, 0, predicted, key
        )

    def floor_in_page(
        self, page_id: int, key: Union[int, bytes], data: Optional[bytes] = None
    ) -> Optional[Tuple[Entry, int]]:
        """Largest pair on ``page_id`` with pair key <= ``key``, if any.

        Binary search over the raw page's key bytes plus one pair decode
        for the hit.  ``key`` may arrive already encoded, and ``data`` may
        be the page when the caller holds it; otherwise it is read here.
        """
        if isinstance(key, int):
            clamped = clamp_key(key, self._key_size)
            if clamped is None:
                return None
            key = clamped.to_bytes(self._key_size, "big")
        if data is None:
            data = self._file.read_page(page_id)
        slot = floor_slot(data, self._page_count(page_id), self._pair_size, 0, key)
        if slot < 0:
            return None
        return self._slot_entry(data, slot), page_id * self._pairs_per_page + slot

    def scan_from(self, position: int, data: Optional[bytes] = None) -> Iterator[Entry]:
        """Yield the pairs from ``position`` on, in order, decoded straight
        off each page.

        The streaming read of provenance queries (Algorithm 8 lines
        14-17) and of range scans (``Run.iter_from``): one page read per
        ``pairs_per_page`` pairs, each pair decoded only when the
        consumer actually pulls it (a limit-bounded scan stops paying
        mid-page).  ``data``, when given, is the page holding
        ``position`` as the caller already read it (a range scan's seek
        page), and is not read again.
        """
        if position >= self.num_entries:
            return
        per_page, pair_size, key_size = self._pairs_per_page, self._pair_size, self._key_size
        from_bytes = int.from_bytes
        first_page, slot = divmod(position, per_page)
        start = slot * pair_size
        for page_id in range(first_page, self.page_of(self.num_entries - 1) + 1):
            if data is None:
                data = self._file.read_page(page_id)
            for offset in range(start, self._page_count(page_id) * pair_size, pair_size):
                split = offset + key_size
                yield from_bytes(data[offset:split], "big"), data[split : offset + pair_size]
            data, start = None, 0

    def iter_pairs(self) -> Iterator[bytes]:
        """Yield every encoded pair in key order (sequential page reads),
        undecoded — the input side of every merge and rewind rebuild, so
        a page is sliced by one comprehension."""
        pair_size = self._pair_size
        for page_id in range(self.page_of(self.num_entries - 1) + 1):
            data = self._file.read_page(page_id)
            yield from [
                data[offset : offset + pair_size]
                for offset in range(0, self._page_count(page_id) * pair_size, pair_size)
            ]
