"""Durable disk effects: the one way to publish or fsync a file.

Every file the store replaces whole — the engine manifest, the WAL's
format record, ``SNAPSHOT.json`` and a ``repro export`` stream — is
published by :func:`replacing`.  Its directory fsync
is what makes the rename survive power loss (Pillai et al., OSDI '14).
A crash-left ``<target>.<random>.tmp`` in an engine workspace is deleted
by the orphan sweep on open.  A file written in place — a run, a
snapshot's copy, a directory — is made durable by :func:`fsync`.
"""

from __future__ import annotations

import contextlib
import errno
import os
import shutil
from typing import BinaryIO, Iterator


def fsync(path: str) -> None:
    """fsync ``path``: a file's bytes, or the names made or renamed in a
    directory, survive a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def replacing(path: str) -> Iterator[BinaryIO]:
    """Yield a binary handle on a temp file beside ``path``; a clean exit
    flushes, fsyncs and renames it over ``path``, then fsyncs the
    directory.  Any exception removes the temp file and propagates.  The
    file gets the mode ``open(path, "wb")`` gives (``0o666 & ~umask``).
    """
    temp = f"{path}.{os.urandom(4).hex()}.tmp"
    handle = open(temp, "xb")  # exclusive: the name is this call's alone
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise
    fsync(os.path.dirname(os.path.abspath(path)))


def link_or_copy(src: str, dest: str) -> None:
    """Hard-link ``src`` at ``dest``, or copy it where no link can be made:
    across filesystems (``EXDEV``) or without link support (``EPERM``)."""
    try:
        os.link(src, dest)
    except OSError as exc:
        if exc.errno not in (errno.EXDEV, errno.EPERM):
            raise
        shutil.copyfile(src, dest)
