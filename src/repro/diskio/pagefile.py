"""Fixed-page files — the unit of IO for every on-disk structure.

A :class:`PagedFile` wraps a real file and exposes page-granular reads,
writes and appends.  Each access is recorded in an :class:`IOStats` so the
benchmark harness can validate the IO-cost columns of Table 1.

Sequential producers (value files, index files, Merkle files are all
written streamingly — Algorithms 3 and 4) use :meth:`append_page`; readers
use :meth:`read_page`.  A tiny optional read cache models the page cache a
real deployment would enjoy without hiding the first (cold) access.

The cache is a **segmented LRU** (probationary + protected, SLRU): a
page enters the probationary segment on fill and is promoted to the
protected segment only on a re-reference — so the hot working set, which
gets re-referenced, accumulates in the protected segment, while a large
one-pass scan streams through probation and evicts only other one-pass
pages.  Readers that *know* they are streaming (run cursors, merge
iterators) pass ``sequential=True`` to :meth:`read_page`, which
additionally suppresses promotion on re-reference: a scan revisiting a
page (two cursor seeks landing nearby) is still not evidence of
point-read hotness.  Hit/miss/promotion counts are recorded in the
:class:`IOStats` per category.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.common.debuglock import maybe_debug_lock
from repro.common.errors import StorageError
from repro.diskio.iostats import IOStats


class PagedFile:
    """A real file accessed in fixed-size pages with IO accounting."""

    def __init__(
        self,
        path: str,
        page_size: int,
        stats: Optional[IOStats] = None,
        category: str = "file",
        cache_pages: int = 0,
        create: bool = True,
    ) -> None:
        """Open (or create) the paged file at ``path``.

        Args:
            path: filesystem path of the backing file.
            page_size: bytes per page; all IO happens in this unit.
            stats: counter sink; a private one is created if omitted.
            category: IOStats category these accesses are billed to.
            cache_pages: capacity of the LRU read cache (0 disables it).
            create: create the file if missing; otherwise it must exist.
        """
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.path = path
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self.category = category
        mode = "r+b" if os.path.exists(path) else ("w+b" if create else None)
        if mode is None:
            raise StorageError(f"paged file does not exist: {path}")
        # Unbuffered: writes reach the OS immediately (they are already
        # page-granular, so buffering saved no syscalls), which is what
        # lets reads use positional ``os.pread`` on the descriptor with
        # no user-space buffer to go stale behind it.
        self._file = open(path, mode, buffering=0)
        self._fd = self._file.fileno()
        self._num_pages = os.path.getsize(path) // page_size
        # Segmented LRU: fills land in probation, a (non-sequential)
        # re-reference promotes to protected.  Protected holds ~80% of
        # the budget; at tiny capacities it degrades to a plain LRU.
        self._probation: "OrderedDict[int, bytes]" = OrderedDict()
        self._protected: "OrderedDict[int, bytes]" = OrderedDict()
        self._cache_capacity = cache_pages
        self._protected_capacity = (cache_pages * 4) // 5
        self._closed = False
        # Guards cache bookkeeping and the write-side file position
        # only.  Reads are positional (pread) and lock-free past the
        # cache probe, so concurrent queries and background merges
        # sharing one handle no longer serialize on every page miss.
        self._lock = maybe_debug_lock("pagedfile-cache")

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        if not self._closed:
            self._file.flush()
            self._file.close()
            self._closed = True

    def __del__(self) -> None:
        # The last holder is gone (a merged-away run's last view).
        if not getattr(self, "_closed", True):
            self.close()

    def __enter__(self) -> "PagedFile":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- geometry ----------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of pages currently in the file."""
        return self._num_pages

    def size_bytes(self) -> int:
        """Current file size in bytes."""
        return self._num_pages * self.page_size

    # -- IO ----------------------------------------------------------------

    def read_page(self, page_id: int, sequential: bool = False) -> bytes:
        """Return the ``page_size`` bytes of page ``page_id``.

        Cache hits are free; misses cost one page read.  The read is a
        positional ``os.pread`` on the descriptor — no seek, no shared
        file position, no lock held across the syscall — so any number
        of threads read the same handle concurrently (and the syscall
        releases the GIL).  Two threads missing the same page may both
        read it (each billed); the lock only serializing them bought
        nothing but contention.

        ``sequential=True`` marks a streaming access (cursor scans,
        merge reads): the page still fills/hits the cache, but a
        probationary hit does not promote — one scan pass must not look
        like point-read hotness to the segmented LRU.
        """
        self._check_open()
        if not 0 <= page_id < self._num_pages:
            raise StorageError(
                f"page {page_id} out of range [0, {self._num_pages}) in {self.path}"
            )
        if self._cache_capacity:
            with self._lock:
                cached = self._cache_get(page_id, sequential)
            if cached is not None:
                self.stats.record_cache_hit(self.category)
                return cached
            self.stats.record_cache_miss(self.category)
        data = os.pread(self._fd, self.page_size, page_id * self.page_size)
        if len(data) != self.page_size:
            raise StorageError(f"short read of page {page_id} in {self.path}")
        self.stats.record_read(self.category)
        if self._cache_capacity:
            with self._lock:
                # A writer (or another reader) may have filled this slot
                # while our pread ran lock-free; never clobber it — a
                # concurrent write_page's fill is fresher than our read.
                if page_id not in self._probation and page_id not in self._protected:
                    self._cache_put(page_id, data)
        return data

    def floor_page(
        self,
        first_page: int,
        count: int,
        per_page: int,
        stride: int,
        offset: int,
        predicted: int,
        key: bytes,
    ) -> Optional[Tuple[int, bytes]]:
        """The page holding the largest record with key ``<= key``, and its
        bytes, as ``(page - first_page, data)``; ``None`` when ``key``
        precedes every record.

        QueryModel's page-stepping (Algorithm 7 lines 13-19) over ``count``
        sorted records packed ``per_page`` to a page from ``first_page`` on:
        read the page of the ``predicted`` position, then step left while
        ``key`` precedes the page or, if it is past the page's last record,
        look one page right — no page is read twice.  Records and keys are
        laid out and compared as in :func:`repro.common.codec.floor_slot`.
        """
        end = offset + len(key)
        page = min(max(predicted, 0), count - 1) // per_page
        data = self.read_page(first_page + page)
        if key < data[offset:end]:
            while page > 0:
                page -= 1
                data = self.read_page(first_page + page)
                if key >= data[offset:end]:
                    return page, data  # and the page to its right starts past key
            return None
        last = (per_page - 1) * stride  # a page before the last one is full
        if page < (count - 1) // per_page and key > data[last + offset : last + end]:
            next_data = self.read_page(first_page + page + 1)
            if key >= next_data[offset:end]:
                return page + 1, next_data
        return page, data

    def write_page(self, page_id: int, data: bytes) -> None:
        """Overwrite page ``page_id`` with ``data`` (must fill the page)."""
        self._check_open()
        if len(data) != self.page_size:
            raise StorageError(
                f"page write must be exactly {self.page_size} bytes, got {len(data)}"
            )
        if not 0 <= page_id < self._num_pages:
            raise StorageError(
                f"page {page_id} out of range [0, {self._num_pages}) in {self.path}"
            )
        with self._lock:
            self._write_at(page_id * self.page_size, data)
            self.stats.record_write(self.category)
            self._cache_put(page_id, bytes(data))

    def append_page(self, data: bytes) -> int:
        """Append a page (padded with zeros if short) and return its id."""
        self._check_open()
        if len(data) > self.page_size:
            raise StorageError(
                f"page append must be <= {self.page_size} bytes, got {len(data)}"
            )
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        with self._lock:
            page_id = self._num_pages
            self._write_at(page_id * self.page_size, data)
            self._num_pages += 1
            self.stats.record_write(self.category)
            self._cache_put(page_id, bytes(data))
            return page_id

    def preallocate(self, num_pages: int) -> None:
        """Extend the file with zero pages without billing write IO.

        Used by streaming writers (the Merkle file, Algorithm 4) that know
        the final size up front and then fill pages at computed offsets;
        the fills are billed, the allocation is not.
        """
        self._check_open()
        if num_pages <= self._num_pages:
            return
        self._file.truncate(num_pages * self.page_size)
        self._num_pages = num_pages

    def flush(self) -> None:
        """Flush buffered writes to the operating system."""
        self._check_open()
        self._file.flush()

    # -- internals ---------------------------------------------------------

    def _write_at(self, offset: int, data: bytes) -> None:
        """Positional write of the whole buffer (raw IO may write short)."""
        view = memoryview(data)
        while view:
            written = os.pwrite(self._fd, view, offset)
            offset += written
            view = view[written:]

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"paged file is closed: {self.path}")

    def _cache_get(self, page_id: int, sequential: bool = False) -> Optional[bytes]:
        """Segmented-LRU probe (caller holds the lock, capacity > 0)."""
        data = self._protected.get(page_id)
        if data is not None:
            self._protected.move_to_end(page_id)
            return data
        data = self._probation.get(page_id)
        if data is None:
            return None
        if sequential or self._protected_capacity == 0:
            # Streaming re-reference (or a cache too small to segment):
            # refresh recency in probation, no promotion.
            self._probation.move_to_end(page_id)
            return data
        # Second (point) hit: promote.  Protected overflow demotes its
        # coldest page back to probation MRU rather than dropping it —
        # it was hot once, give it one more chance over a never-hit fill.
        del self._probation[page_id]
        self._protected[page_id] = data
        self.stats.record_cache_promotion(self.category)
        while len(self._protected) > self._protected_capacity:
            demoted_id, demoted = self._protected.popitem(last=False)
            self._probation[demoted_id] = demoted
            self._probation.move_to_end(demoted_id)
        self._trim()
        return data

    def _cache_put(self, page_id: int, data: bytes) -> None:
        if self._cache_capacity == 0:
            return
        # Fills are always probationary: a first touch — point read,
        # scan, or write — is not yet evidence of hotness.
        self._probation[page_id] = data
        self._probation.move_to_end(page_id)
        self._trim()

    def _trim(self) -> None:
        """Enforce the total budget: evict probation first, cold-protected
        last (only reachable when protected alone exceeds the budget)."""
        while len(self._probation) + len(self._protected) > self._cache_capacity:
            if self._probation:
                self._probation.popitem(last=False)
            else:
                self._protected.popitem(last=False)
