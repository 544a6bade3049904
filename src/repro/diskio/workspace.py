"""Workspace: the directory owning one storage engine's files.

A workspace hands out :class:`PagedFile` handles with consistent naming
(``level-group-run.kind`` for COLE runs, arbitrary names for the KV store),
tracks them for clean shutdown, and reports the total on-disk footprint —
the storage-size series of Figures 9 and 10 is the sum of real file sizes
in a workspace plus any raw (non-paged) artifacts registered with it.
"""

from __future__ import annotations

import os
import shutil
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
        #: name -> (category, cache_pages) the cached handle was opened
        #: with, so a later open with different arguments is detected.
        self._open_specs: Dict[str, tuple] = {}
        self._raw_bytes: Dict[str, int] = {}
        # Background merges open run files while queries run; the handle
        # table must not be mutated mid-iteration.
        self._files_lock = threading.Lock()

    # -- file management ----------------------------------------------------

    def path_of(self, name: str) -> str:
        """Absolute path of the file called ``name`` in this workspace."""
        return os.path.join(self.root, name)

    def open_file(
        self, name: str, category: str = "file", cache_pages: int = 0, create: bool = True
    ) -> PagedFile:
        """Open (or create) the paged file ``name``; handles are cached.

        A cached handle keeps the *first* opener's ``category`` and
        ``cache_pages``; a later open asking for different values would
        silently get the first configuration (mis-billed IO stats, a
        cache the caller did not size), so the mismatch raises instead.
        """
        spec = (category, cache_pages)
        with self._files_lock:
            existing = self._open_files.get(name)
            if existing is not None:
                opened_as = self._open_specs[name]
                if opened_as != spec:
                    raise StorageError(
                        f"file {name!r} is already open with "
                        f"category={opened_as[0]!r}, cache_pages={opened_as[1]} "
                        f"(asked for category={category!r}, "
                        f"cache_pages={cache_pages}); close it first or "
                        f"match the original arguments"
                    )
                return existing
            handle = PagedFile(
                self.path_of(name),
                self.page_size,
                stats=self.stats,
                category=category,
                cache_pages=cache_pages,
                create=create,
            )
            self._open_files[name] = handle
            self._open_specs[name] = spec
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
            self._open_specs.pop(name, None)
        path = self.path_of(name)
        if os.path.exists(path):
            os.remove(path)
        self._raw_bytes.pop(name, None)

    def close_file(self, name: str) -> None:
        """Close the open handle for ``name`` without deleting it."""
        with self._files_lock:
            handle = self._open_files.pop(name, None)
            self._open_specs.pop(name, None)
        if handle is not None:
            handle.close()

    def list_files(self) -> Iterator[str]:
        """Iterate over the names of all regular files present on disk.

        Subdirectories (a co-located WAL, shard workspaces) are not the
        workspace's to manage — recovery must not try to delete them.
        """
        return iter(
            sorted(
                name
                for name in os.listdir(self.root)
                if os.path.isfile(os.path.join(self.root, name))
            )
        )

    def flush_all(self) -> None:
        """Flush every open handle's buffered pages to the OS.

        After this, a filesystem-level copy of the workspace sees every
        page the engine has written (the snapshot path relies on it).
        """
        with self._files_lock:
            handles = list(self._open_files.values())
        for handle in handles:
            if not handle._closed:
                handle.flush()

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
        self.flush_all()  # so getsize sees appended pages
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
            self._open_specs.clear()
        for handle in handles:
            handle.close()

    def destroy(self) -> None:
        """Close everything and delete the workspace directory."""
        self.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
