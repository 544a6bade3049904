"""Test configuration for every run: temporary files live on tmpfs.

When no ``--basetemp`` is given and ``/dev/shm`` is a writable tmpfs,
pytest's ``tmp_path`` base directory and :mod:`tempfile`'s default
directory move to a fresh directory there, removed when the test run
ends.  The tests create, fsync and unlink thousands of small files; on
a disk mounted with ``discard`` every freed block stalls the next fsync,
which is disk timing the tests do not measure.  Otherwise nothing
changes.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

SHM = "/dev/shm"

_tmpfs_dir = None


def _writable_tmpfs(path: str) -> bool:
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            fstypes = {
                fields[1]: fields[2]
                for fields in (line.split() for line in mounts)
                if len(fields) > 2
            }
    except OSError:
        return False
    return fstypes.get(path) == "tmpfs" and os.access(path, os.W_OK | os.X_OK)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config: pytest.Config) -> None:
    global _tmpfs_dir
    if config.option.basetemp is not None or not _writable_tmpfs(SHM):
        return
    _tmpfs_dir = tempfile.mkdtemp(prefix="pytest-", dir=SHM)
    # pytest empties a given basetemp before use, so it is a child that
    # does not exist yet; mkdtemp callers share the parent.
    config.option.basetemp = os.path.join(_tmpfs_dir, "basetemp")
    tempfile.tempdir = _tmpfs_dir


def pytest_unconfigure(config: pytest.Config) -> None:
    global _tmpfs_dir
    if _tmpfs_dir is None:
        return
    tempfile.tempdir = None
    shutil.rmtree(_tmpfs_dir, ignore_errors=True)
    _tmpfs_dir = None
