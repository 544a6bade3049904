"""Fixed-page files — the unit of IO for every on-disk structure.

A :class:`PagedFile` wraps a real file and exposes page-granular reads,
writes and appends.  Each access is recorded in an :class:`IOStats` so the
benchmark harness can validate the IO-cost columns of Table 1.

Sequential producers (value files, index files, Merkle files are all
written streamingly — Algorithms 3 and 4) use :meth:`append_page`; readers
use :meth:`read_page`.  There is no page cache of the engine's own: every
read is billed as one page read, as Table 1 counts them, and caching is
the kernel's.
"""

from __future__ import annotations

import os
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
        create: bool = True,
    ) -> None:
        """Create, or open read-only, the paged file at ``path``.

        Args:
            path: filesystem path of the backing file.
            page_size: bytes per page; all IO happens in this unit.
            stats: counter sink; a private one is created if omitted.
            category: IOStats category these accesses are billed to.
            create: create a new file, which must not exist yet;
                otherwise open an existing file read-only, so nothing
                rewrites a file once its writer has closed it.
        """
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.path = path
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        self.category = category
        # Unbuffered: writes reach the OS immediately (they are already
        # page-granular, so buffering saved no syscalls), which is what
        # lets reads use positional ``os.pread`` on the descriptor with
        # no user-space buffer to go stale behind it.
        try:
            self._file = open(path, "x+b" if create else "rb", buffering=0)
        except FileExistsError:
            raise StorageError(f"paged file already exists: {path}") from None
        except FileNotFoundError:
            raise StorageError(f"paged file does not exist: {path}") from None
        self._fd = self._file.fileno()
        self._num_pages = os.path.getsize(path) // page_size
        self._closed = False
        # Serializes appends (which advance the page count) and page
        # overwrites.  Reads are positional (pread) and take no lock, so
        # concurrent queries and background merges sharing one handle
        # never serialize.
        self._lock = maybe_debug_lock("pagedfile-write")

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

    def read_page(self, page_id: int) -> bytes:
        """Return the ``page_size`` bytes of page ``page_id``, billed as
        one page read.

        The read is a positional ``os.pread`` on the descriptor — no
        seek, no shared file position, no lock held across the syscall —
        so any number of threads read the same handle concurrently (and
        the syscall releases the GIL).
        """
        self._check_open()
        if not 0 <= page_id < self._num_pages:
            raise StorageError(
                f"page {page_id} out of range [0, {self._num_pages}) in {self.path}"
            )
        data = os.pread(self._fd, self.page_size, page_id * self.page_size)
        if len(data) != self.page_size:
            raise StorageError(f"short read of page {page_id} in {self.path}")
        self.stats.record_read(self.category)
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
