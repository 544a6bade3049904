"""One way to publish a file: every whole-file writer goes through
:func:`repro.diskio.durable.replacing`.

The four writers are the engine manifest, the WAL's format record, a
snapshot's ``SNAPSHOT.json`` and ``repro export``.
Each must fsync the temp file, rename it over the target, then fsync the
directory; publish with the mode a plain ``open(path, "wb")`` gives; and
on a failed write leave the target and its directory as they were.
"""

import ast
import contextlib
import errno
import os
import stat
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.common.params import ColeParams
from repro.core import Cole
from repro.core.manifest import MANIFEST_NAME, Manifest, save_manifest
from repro.wal import WriteAheadLog, snapshot_store
from repro.wal.log import WAL_META_NAME
from repro.wal.snapshot import SNAPSHOT_META_NAME


@pytest.fixture
def closers():
    opened = []
    yield opened
    for close in reversed(opened):
        close()


# Each writer sets up under ``tmp_path`` and returns ``(target, publish)``:
# ``publish()`` writes ``target`` once through the writer under test.


def engine_manifest(tmp_path, closers):
    root = tmp_path / "ws"
    root.mkdir()
    save_manifest(str(root), Manifest(checkpoint_blk=1))
    return root / MANIFEST_NAME, lambda: save_manifest(str(root), Manifest(checkpoint_blk=2))


def wal_meta(tmp_path, closers):
    directory = tmp_path / "wal"
    directory.mkdir()

    def publish():
        closers.append(WriteAheadLog(str(directory)).close)

    return directory / WAL_META_NAME, publish


def snapshot_record(tmp_path, closers):
    # A store with nothing committed and no WAL: the record is the
    # snapshot's only file, so its publish is every disk event.
    engine = Cole(str(tmp_path / "ws"), ColeParams())
    closers.append(engine.close)
    dest = tmp_path / "snap"
    dest.mkdir()
    return dest / SNAPSHOT_META_NAME, lambda: snapshot_store(engine, str(dest))


def export_stream(tmp_path, closers):
    out = tmp_path / "out" / "slice.repx"
    out.parent.mkdir()
    export = ["export", "-w", str(tmp_path / "ws"), "-o", str(out)]
    assert main(export) == 0
    return out, lambda: main(export)


WRITERS = [engine_manifest, wal_meta, snapshot_record, export_stream]


@pytest.fixture(params=WRITERS, ids=lambda writer: writer.__name__)
def writer(request):
    return request.param


def test_publish_is_fsync_rename_then_directory_fsync(tmp_path, monkeypatch, closers, writer):
    target, publish = writer(tmp_path, closers)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    umask = os.umask(0o027)
    try:
        publish()
    finally:
        os.umask(umask)
    monkeypatch.undo()
    published, directory = os.stat(target), os.stat(target.parent)
    # Other files the writer touches (an export's workspace) are not this
    # publish's events.
    watched = {published.st_ino, directory.st_ino}
    assert [event for event in events if event[1] in watched] == [
        ("fsync", published.st_ino),
        ("replace", published.st_ino),
        ("fsync", directory.st_ino),
    ]
    assert stat.S_IMODE(published.st_mode) == 0o666 & ~0o027


def test_a_failed_publish_leaves_the_target_and_its_directory_as_they_were(
    tmp_path, monkeypatch, closers, writer
):
    target, publish = writer(tmp_path, closers)
    directory = target.parent
    names = sorted(os.listdir(directory))
    before = target.read_bytes() if target.exists() else None
    failed = []
    real_fsync = os.fsync

    def fsync(fd):
        new = {
            os.stat(directory / name).st_ino
            for name in os.listdir(directory)
            if name not in names
        }
        if os.fstat(fd).st_ino in new:  # the temp file: the device is full
            failed.append(fd)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with contextlib.suppress(OSError):
        publish()  # `repro export` reports the error and exits 1
    monkeypatch.undo()
    assert failed
    assert sorted(os.listdir(directory)) == names
    assert (target.read_bytes() if target.exists() else None) == before


#: Calls that rename, link or open a raw file descriptor: only
#: ``diskio/durable.py`` may make them.
RAW_CALLS = {
    ("os", "replace"),
    ("os", "rename"),
    ("os", "link"),
    ("os", "open"),
    ("tempfile", "mkstemp"),
}


def test_only_durable_renames_links_or_opens_descriptors():
    package = Path(repro.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "diskio" / "durable.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [(node.module, alias.name) for alias in node.names]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                names = [(node.func.value.id, node.func.attr)]
            else:
                continue
            if RAW_CALLS.intersection(names):
                found.append(f"{path.relative_to(package)}:{node.lineno}")
    assert found == []


class _FsyncCalls(ast.NodeVisitor):
    """Every ``os.fsync`` / ``os.fdatasync`` reference, by enclosing scope."""

    def __init__(self, prefix):
        self.scope = [prefix]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and (node.value.id, node.attr) in {
            ("os", "fsync"),
            ("os", "fdatasync"),
        }:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_durable_and_the_wal_segment_syncs_call_os_fsync():
    """A run, a snapshot copy or a directory is fsynced through
    ``durable.fsync``.  The WAL's two segment fsyncs
    stay in ``WriteAheadLog.sync``: the traced served benchmark replaces
    ``repro.wal.log.os`` to record exactly those."""
    package = Path(repro.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "diskio" / "durable.py":
            continue
        visitor = _FsyncCalls(str(path.relative_to(package)))
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert found == ["wal/log.py.WriteAheadLog.sync"] * 2
