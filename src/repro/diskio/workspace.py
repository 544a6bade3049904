"""Workspace: the directory owning one storage engine's files.

A workspace hands out :class:`PagedFile` handles with consistent naming
(``level-group-run.kind`` for COLE runs, arbitrary names for the KV store),
tracks them for clean shutdown, and reports the total on-disk footprint —
the storage-size series of Figures 9 and 10 is the sum of real file sizes
in a workspace plus any raw (non-paged) artifacts registered with it.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterator, Optional

from repro.common.errors import StorageError
from repro.diskio.iostats import IOStats
from repro.diskio.pagefile import PagedFile


class Workspace:
    """A directory of paged files with byte-accurate size accounting."""

    def __init__(self, root: str, page_size: int, stats: Optional[IOStats] = None) -> None:
        """Create (if needed) and open the workspace rooted at ``root``."""
        self.root = root
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()
        os.makedirs(root, exist_ok=True)
        self._open_files: Dict[str, PagedFile] = {}
        self._raw_bytes: Dict[str, int] = {}
        # Background merges open run files while queries run; the handle
        # table must not be mutated mid-iteration.
        self._files_lock = threading.Lock()

    # -- file management ----------------------------------------------------

    def path_of(self, name: str) -> str:
        """Absolute path of the file called ``name`` in this workspace."""
        return os.path.join(self.root, name)

    def open_file(
        self, name: str, category: str = "file", create: bool = True
    ) -> PagedFile:
        """Create (``create=True``) or open read-only the paged file
        ``name``; handles are cached.

        Creating a name that exists, on disk or as a cached handle,
        raises.  An open returns the cached handle, which keeps the
        *first* opener's ``category``; a later open asking for another
        would silently get the first one (mis-billed IO stats), so the
        mismatch raises instead.
        """
        with self._files_lock:
            existing = self._open_files.get(name)
            if existing is not None:
                if create:
                    raise StorageError(f"paged file already exists: {existing.path}")
                if existing.category != category:
                    raise StorageError(
                        f"file {name!r} is already open with "
                        f"category={existing.category!r} "
                        f"(asked for category={category!r}); close it first "
                        f"or match the original category"
                    )
                return existing
            handle = PagedFile(
                self.path_of(name),
                self.page_size,
                stats=self.stats,
                category=category,
                create=create,
            )
            self._open_files[name] = handle
            return handle

    def exists(self, name: str) -> bool:
        """True if a file called ``name`` exists on disk."""
        return os.path.exists(self.path_of(name))

    def remove_file(self, name: str) -> None:
        """Unlink ``name`` and forget its handle without closing it: a
        reader may still hold it (a published ``StoreView`` names the run);
        the descriptor closes when the last holder drops the handle."""
        with self._files_lock:
            self._open_files.pop(name, None)
        path = self.path_of(name)
        if os.path.exists(path):
            os.remove(path)
        self._raw_bytes.pop(name, None)

    def list_files(self) -> Iterator[str]:
        """Iterate over the names of all regular files present on disk.

        Subdirectories (a co-located WAL) are not the workspace's to
        manage — recovery must not try to delete them.
        """
        return iter(
            sorted(
                name
                for name in os.listdir(self.root)
                if os.path.isfile(os.path.join(self.root, name))
            )
        )

    # -- raw (non-paged) artifacts -------------------------------------------

    def register_raw(self, name: str, num_bytes: int) -> None:
        """Account ``num_bytes`` for an in-memory artifact named ``name``.

        Used for structures the paper stores on disk but that the
        reproduction keeps in memory for speed (e.g. bloom filters); they
        still count toward the reported storage size.
        """
        if num_bytes < 0:
            raise StorageError("raw artifact size cannot be negative")
        self._raw_bytes[name] = num_bytes

    def unregister_raw(self, name: str) -> None:
        """Drop the raw artifact accounting entry ``name``."""
        self._raw_bytes.pop(name, None)

    # -- accounting ----------------------------------------------------------

    def storage_bytes(self) -> int:
        """Total on-disk footprint (files plus registered raw artifacts)."""
        total = 0
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if os.path.isfile(path):
                total += os.path.getsize(path)
        return total + sum(self._raw_bytes.values())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close all open file handles (idempotent)."""
        with self._files_lock:
            handles = list(self._open_files.values())
            self._open_files.clear()
        for handle in handles:
            handle.close()

    def release(self) -> None:
        """Forget every handle without closing it, as :meth:`remove_file`
        does for one: a reader may still hold them, and each descriptor
        closes when its last holder drops it."""
        with self._files_lock:
            self._open_files.clear()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
