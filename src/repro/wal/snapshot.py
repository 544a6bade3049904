"""Snapshot / restore: a consistent point-in-time checkpoint of a store.

A snapshot is a directory holding

* the engine's ``MANIFEST.json`` (copied) and the run files it names
  (hard-linked),
* the WAL segment chain (copied: the tail of writes newer than the
  manifest checkpoints — the in-memory level's durable twin), and
* ``SNAPSHOT.json``: the live root digest at the capture instant, the
  engine checkpoint, and the size and crc32 of every file.

Runs are immutable once :meth:`~repro.core.run.Run.build` returns — every
later open of a run file is read-only — so a hard link is as good as a
copy and costs no bytes.  The manifest and the WAL are always copied:
the engine replaces its manifest and a WAL open trims a torn tail in
place and appends.  Where a link cannot be made (another filesystem, or
no link support) a run file is copied instead.

Consistency: the capture happens under the engine's :class:`CommitGate`
held **exclusive**, so no commit checkpoint can replace the manifest,
attach a merge output, or delete a merged-away run mid-capture.  Under
the gate the snapshot reads the manifest's bytes, copies the WAL
prefixes :meth:`~repro.wal.log.WriteAheadLog.live_files` names (skipping
one truncation deleted meanwhile: it held only checkpointed heights)
and links the run files.  Writing the manifest copy, the crc32s, the
fsyncs and ``SNAPSHOT.json`` happen after the gate is released.

A checkpoint shares inodes with the live store, so it survives the store
merging away and deleting its runs, but not the loss or corruption of
the medium both live on; an off-box backup is ``repro export``.

Restoring verifies every file against its recorded crc32, lays the files
back out (links for runs where it can), and leaves opening the engine
(plus replaying the copied WAL tail) to the caller — ``repro restore``
does both and checks the recovered root digest against the recorded one.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from typing import List, Optional

from repro.common.errors import IntegrityError, StorageError
from repro.core.manifest import MANIFEST_NAME, Manifest, load_manifest
from repro.core.run import RUN_SUFFIXES
from repro.diskio import durable
from repro.wal.log import WAL_DIR_NAME, WAL_META_NAME, WriteAheadLog

SNAPSHOT_META_NAME = "SNAPSHOT.json"
#: Layout of a snapshot directory: 3 is a checkpoint whose run files may
#: be hard links.  Formats 1 and 2 could be chained or sharded.
SNAPSHOT_FORMAT = 3


def _copy_prefix(src: str, dest: str, limit: int) -> None:
    """Copy ``src``'s first ``limit`` bytes (at most one WAL segment)."""
    with open(src, "rb") as source, open(dest, "wb") as out:
        out.write(source.read(limit))


def _file_crc(path: str, sync: bool = False) -> int:
    """crc32 of ``path``'s bytes; ``sync`` fsyncs it after the read."""
    crc = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            crc = zlib.crc32(chunk, crc)
    if sync:
        durable.fsync(path)
    return crc


def snapshot_store(engine, dest: str, wal: Optional[WriteAheadLog] = None) -> dict:
    """Checkpoint ``engine``'s durable state (and ``wal``'s tail) into
    ``dest``.

    Returns the written metadata.  ``dest`` must be absent or empty.
    The engine stays open and serving-capable afterwards.  Every file,
    then ``wal/``, then ``SNAPSHOT.json`` and ``dest`` are synced before
    it returns.

    The recorded ``root_digest`` equals the root a restore-plus-replay
    reproduces when every copied WAL record is already reflected in the
    engine — true after :func:`~repro.wal.replay_wal` (the ``repro
    snapshot`` flow) or any quiesced store.  Snapshotting a *live
    served* store, force a group commit (the FLUSH op) first: puts still
    buffered in the write batcher have WAL records but are not yet in
    the engine root, so a restore would recover *more* than the recorded
    root and report a mismatch.
    """
    if os.path.exists(dest) and os.listdir(dest):
        raise StorageError(f"snapshot destination {dest} is not empty")
    wal_dest = os.path.join(dest, WAL_DIR_NAME)
    os.makedirs(wal_dest if wal is not None else dest, exist_ok=True)
    workspace = engine.workspace
    names: List[str] = []
    with engine.gate.exclusive():
        manifest_path = workspace.path_of(MANIFEST_NAME)
        manifest_bytes = None
        manifest = Manifest()
        if os.path.exists(manifest_path):
            with open(manifest_path, "rb") as handle:
                manifest_bytes = handle.read()
            manifest = Manifest.from_json(manifest_bytes, manifest_path)
        if wal is not None:
            # Segment prefixes captured at record boundaries: appends
            # racing the copy can neither tear a record nor leak records
            # past the capture instant into the snapshot.  A segment the
            # batcher's truncation (which does not take the gate) deleted
            # since held only heights at or below a checkpoint read before
            # the manifest above, so at or below the manifest's own:
            # replay would skip them all.
            for path, copy_bytes in wal.live_files():
                rel = os.path.join(WAL_DIR_NAME, os.path.basename(path))
                try:
                    _copy_prefix(path, os.path.join(dest, rel), copy_bytes)
                except FileNotFoundError:
                    continue
                names.append(rel)
            rel = os.path.join(WAL_DIR_NAME, WAL_META_NAME)
            shutil.copyfile(os.path.join(wal.directory, WAL_META_NAME), os.path.join(dest, rel))
            names.append(rel)
        for groups in manifest.levels.values():
            for records in groups.values():
                for record in records:
                    for suffix in RUN_SUFFIXES:
                        rel = record.name + suffix
                        if os.path.exists(workspace.path_of(rel)):
                            durable.link_or_copy(workspace.path_of(rel), os.path.join(dest, rel))
                            names.append(rel)
        meta = {
            "format": SNAPSHOT_FORMAT,
            "root_digest": engine.root_digest().hex(),
            "checkpoint_blk": engine.checkpoint_blk,
            "current_blk": engine.current_blk,
            "has_wal": wal is not None,
        }
    if manifest_bytes is not None:
        names.append(MANIFEST_NAME)
        with open(os.path.join(dest, MANIFEST_NAME), "wb") as handle:
            handle.write(manifest_bytes)
    meta["files"] = {
        name: {
            "size": os.path.getsize(os.path.join(dest, name)),
            "crc32": _file_crc(os.path.join(dest, name), sync=True),
        }
        for name in sorted(names)
    }
    # Names in dest/wal are durable before the record that lists them.
    if wal is not None:
        durable.fsync(wal_dest)
    with durable.replacing(os.path.join(dest, SNAPSHOT_META_NAME)) as handle:
        handle.write(json.dumps(meta, indent=1).encode("utf-8"))
    return meta


def load_snapshot_meta(src: str) -> dict:
    """``src``'s ``SNAPSHOT.json``; a snapshot of another format is
    refused before anything reads its files."""
    path = os.path.join(src, SNAPSHOT_META_NAME)
    if not os.path.exists(path):
        raise StorageError(f"{src} is not a snapshot (no {SNAPSHOT_META_NAME})")
    with open(path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("format") != SNAPSHOT_FORMAT:
        raise StorageError(
            f"{src} is snapshot format {meta.get('format')!r} (possibly chained "
            f"or sharded); this build reads format {SNAPSHOT_FORMAT} — export "
            "the store with the build that wrote it (`repro export`) and "
            "`repro import` the slice here"
        )
    return meta


def verify_snapshot(src: str) -> dict:
    """Check every file of the snapshot at ``src`` against its recorded
    size and crc32; returns the metadata."""
    meta = load_snapshot_meta(src)
    for rel, attrs in meta["files"].items():
        path = os.path.join(src, rel)
        if not os.path.exists(path):
            raise IntegrityError(f"snapshot file missing: {rel}")
        if os.path.getsize(path) != attrs["size"]:
            raise IntegrityError(f"snapshot file resized: {rel}")
        if _file_crc(path) != attrs["crc32"]:
            raise IntegrityError(f"snapshot file corrupted: {rel}")
    return meta


def restore_store(src: str, dest: str) -> dict:
    """Verify the snapshot at ``src`` and lay its files out under
    ``dest``: run files linked where they can be, the manifest and WAL
    copied.

    Returns the snapshot metadata.  The caller opens the engine on
    ``dest`` and replays ``dest/wal`` to finish — ``repro restore`` does
    exactly that and compares the recovered root against
    ``meta["root_digest"]``.  A snapshot of another format, or one whose
    manifest this build does not open (:func:`load_manifest`), is refused
    before anything is laid out.
    """
    meta = verify_snapshot(src)
    load_manifest(src)
    if os.path.exists(dest) and os.listdir(dest):
        raise StorageError(f"restore destination {dest} is not empty")
    os.makedirs(dest, exist_ok=True)
    for rel in meta["files"]:
        source, target = os.path.join(src, rel), os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        if rel.endswith(RUN_SUFFIXES):
            durable.link_or_copy(source, target)
        else:
            shutil.copyfile(source, target)
    return meta
