"""Snapshot / restore: a consistent point-in-time copy of a store.

A snapshot is a directory holding

* the engine's ``MANIFEST.json`` and the run files it names,
* the WAL segment chain (the tail of writes newer than the manifest
  checkpoints — the in-memory level's durable twin), and
* ``SNAPSHOT.json``: the store kind, the live root digest at the copy
  instant, the engine checkpoint, and a crc32 per copied file.

Consistency: the copy happens under the engine's :class:`CommitGate`
held **exclusive**, so no commit checkpoint can replace the manifest,
attach a merge output, or delete a merged-away run mid-copy.  Background
merges may keep running — their half-built files are not named by the
manifest and are not copied.  Runs are immutable once built, so the
named files cannot change under the copy.

Restoring verifies every file against its recorded crc32, lays the files
back out, and leaves opening the engine (plus replaying the copied WAL
tail) to the caller — ``repro restore`` does both and checks the
recovered root digest against the recorded one.

Incremental snapshots (``parent=`` / ``repro snapshot
--incremental-from``): runs are immutable and uniquely named (the
monotonic ``next_run_seq``), so a run file whose name **and size** match
a record anywhere up the parent chain is byte-identical and need not be
copied again.  An incremental snapshot copies only the manifest, the WAL
tail, and runs new since the parent, and records the rest under
``reused`` (with the ancestor's size + crc32) plus a ``parent`` pointer
(relative, so a family of snapshots can move together).  Verification
walks the whole chain — every hop's copied files against their crcs,
every reused record against the ancestor inventory — and restore lays
out exactly ``files + reused``, each fetched from the nearest hop that
physically holds it.  Runs merged away between parent and child appear
in neither set and are not restored.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from typing import Dict, List, Optional

from repro.common.errors import IntegrityError, StorageError
from repro.core.manifest import MANIFEST_NAME, load_manifest
from repro.core.run import RUN_SUFFIXES
from repro.wal.log import WriteAheadLog

SNAPSHOT_META_NAME = "SNAPSHOT.json"
WAL_DIR_NAME = "wal"

#: Upper bound on parent-chain length — far beyond any sane backup
#: rotation, tight enough to turn a parent-pointer cycle into an error.
MAX_CHAIN_DEPTH = 256


def _file_crc(path: str) -> int:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def _single_engine(meta: dict, src: str) -> dict:
    """``meta``, unless it records a store of the removed in-process
    sharded engine (``kind: "sharded"``), which nothing here opens."""
    if meta.get("kind") == "sharded":
        raise StorageError(
            f"{src} is a snapshot of a {meta['num_shards']}-shard in-process "
            "store, which no engine here opens; scale out with `repro cluster`"
        )
    return meta


def _chain_hops(src: str) -> List[tuple]:
    """The snapshot chain rooted at ``src``: ``[(dir, meta), ...]``,
    newest hop first, ending at a full snapshot.  Guards against broken
    parent pointers and cycles."""
    hops: List[tuple] = []
    seen = set()
    current = src
    while True:
        real = os.path.realpath(current)
        if real in seen:
            raise IntegrityError(f"snapshot parent chain has a cycle at {current}")
        if len(hops) >= MAX_CHAIN_DEPTH:
            raise IntegrityError(f"snapshot parent chain deeper than {MAX_CHAIN_DEPTH}")
        seen.add(real)
        meta = load_snapshot_meta(current)
        hops.append((current, meta))
        parent_rel = meta.get("parent")
        if parent_rel is None:
            return hops
        current = os.path.normpath(os.path.join(current, parent_rel))
        if not os.path.isdir(current):
            raise IntegrityError(
                f"snapshot parent missing: {current} (chain from {src})"
            )


def _chain_inventory(hops: List[tuple]) -> Dict[str, dict]:
    """Every file record reachable from the chain (rel -> attrs), with
    the newest hop's record winning.  Includes ``reused`` records, so a
    grandchild can reuse against a parent that itself reused."""
    inventory: Dict[str, dict] = {}
    for directory, meta in reversed(hops):  # oldest first; newest wins
        inventory.update(meta.get("reused", {}))
        inventory.update(meta["files"])
    return inventory


def snapshot_store(
    engine,
    dest: str,
    wal: Optional[WriteAheadLog] = None,
    parent: Optional[str] = None,
) -> dict:
    """Copy ``engine``'s durable state (and ``wal``'s tail) into ``dest``.

    Returns the written metadata.  ``dest`` must be absent or empty.
    The engine stays open and serving-capable afterwards.

    With ``parent`` (a previous snapshot of the *same* store), run files
    already recorded anywhere up the parent chain are skipped and listed
    under ``reused`` instead — the incremental mode of the module
    docstring.  The parent chain is resolved and its metadata loaded
    before the commit gate stalls writers.

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
    inherited: Dict[str, dict] = {}
    parent_meta: Optional[dict] = None
    if parent is not None:
        hops = _chain_hops(parent)
        parent_meta = _single_engine(hops[0][1], parent)
        inherited = _chain_inventory(hops)
    os.makedirs(dest, exist_ok=True)
    files: Dict[str, dict] = {}
    reused: Dict[str, dict] = {}

    def copy_one(src_path: str, rel: str, limit: Optional[int] = None) -> None:
        # The crc accumulates over the chunks already flowing through the
        # copy — re-reading the target to checksum it would double the
        # IO done while the commit gate stalls every writer.
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        crc = 0
        copied = 0
        remaining = limit
        with open(src_path, "rb") as src, open(target, "wb") as out:
            while remaining is None or remaining > 0:
                step = 1 << 20 if remaining is None else min(1 << 20, remaining)
                chunk = src.read(step)
                if not chunk:
                    break
                out.write(chunk)
                crc = zlib.crc32(chunk, crc)
                copied += len(chunk)
                if remaining is not None:
                    remaining -= len(chunk)
        files[rel] = {"size": copied, "crc32": crc}

    with engine.gate.exclusive():
        workspace = engine.workspace
        manifest = load_manifest(workspace.root)
        manifest_src = os.path.join(workspace.root, MANIFEST_NAME)
        if os.path.exists(manifest_src):
            copy_one(manifest_src, MANIFEST_NAME)
        for groups in manifest.levels.values():
            for records in groups.values():
                for record in records:
                    for suffix in RUN_SUFFIXES:
                        name = record.name + suffix
                        src_path = workspace.path_of(name)
                        if not os.path.exists(src_path):
                            continue
                        known = inherited.get(name)
                        if known is not None and known["size"] == os.path.getsize(src_path):
                            # Same name + size up the chain: runs are
                            # immutable and names never recycle, so the
                            # bytes (and the ancestor's crc) are already
                            # in the chain.
                            reused[name] = {"size": known["size"], "crc32": known["crc32"]}
                            continue
                        copy_one(src_path, name)
        if wal is not None:
            # Segment prefixes captured at record boundaries: appends
            # racing the copy can neither tear a record nor leak records
            # past the capture instant into the snapshot.
            for path, copy_bytes in wal.live_files():
                copy_one(
                    path,
                    os.path.join(WAL_DIR_NAME, os.path.basename(path)),
                    limit=copy_bytes,
                )
            meta_path = os.path.join(wal.directory, "WAL.json")
            if os.path.exists(meta_path):
                copy_one(meta_path, os.path.join(WAL_DIR_NAME, "WAL.json"))
        meta = {
            "format": 2,
            "kind": "cole",
            "num_shards": 1,
            # Gate-free: the public root_digest would re-acquire the gate.
            "root_digest": engine._root_digest().hex(),
            "checkpoint_blk": engine.checkpoint_blk,
            "current_blk": engine.current_blk,
            "has_wal": wal is not None,
            "files": files,
            "reused": reused,
        }
        if parent is not None and parent_meta is not None:
            meta["parent"] = os.path.relpath(
                os.path.abspath(parent), os.path.abspath(dest)
            )
            meta["parent_root"] = parent_meta["root_digest"]
    meta_path = os.path.join(dest, SNAPSHOT_META_NAME)
    temp_path = meta_path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=1)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, meta_path)
    return meta


def load_snapshot_meta(src: str) -> dict:
    path = os.path.join(src, SNAPSHOT_META_NAME)
    if not os.path.exists(path):
        raise StorageError(f"{src} is not a snapshot (no {SNAPSHOT_META_NAME})")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _verify_hop(directory: str, meta: dict) -> None:
    """Check one hop's *copied* files against their recorded size/crc."""
    for rel, attrs in meta["files"].items():
        path = os.path.join(directory, rel)
        if not os.path.exists(path):
            raise IntegrityError(f"snapshot file missing: {rel}")
        if os.path.getsize(path) != attrs["size"]:
            raise IntegrityError(f"snapshot file resized: {rel}")
        if _file_crc(path) != attrs["crc32"]:
            raise IntegrityError(f"snapshot file corrupted: {rel}")


def verify_snapshot(src: str) -> dict:
    """Verify the snapshot at ``src`` — its whole parent chain.

    Every hop's copied files are checked against their recorded size and
    crc32, and every ``reused`` record must resolve to a matching record
    somewhere up the chain (a hop verified on-disk).  Returns the newest
    hop's metadata.
    """
    hops = _chain_hops(src)
    for directory, meta in hops:
        _verify_hop(directory, meta)
    # Ancestor copies are now known good; a reused record is sound iff
    # it matches what some ancestor actually holds.
    for index, (directory, meta) in enumerate(hops):
        ancestors = _chain_inventory(hops[index + 1 :])
        for rel, attrs in meta.get("reused", {}).items():
            known = ancestors.get(rel)
            if known is None:
                raise IntegrityError(
                    f"snapshot reuses {rel} but no ancestor holds it"
                )
            if known["size"] != attrs["size"] or known["crc32"] != attrs["crc32"]:
                raise IntegrityError(
                    f"snapshot reused-file record mismatch: {rel}"
                )
    return hops[0][1]


def _resolve_sources(hops: List[tuple]) -> Dict[str, str]:
    """Map the newest hop's full inventory (files + reused) to the
    nearest hop directory that physically holds each file."""
    directory, meta = hops[0]
    sources: Dict[str, str] = {rel: directory for rel in meta["files"]}
    for rel in meta.get("reused", {}):
        for ancestor_dir, ancestor_meta in hops[1:]:
            if rel in ancestor_meta["files"]:
                sources[rel] = ancestor_dir
                break
        else:
            raise IntegrityError(f"snapshot reuses {rel} but no ancestor holds it")
    return sources


def restore_store(src: str, dest: str) -> dict:
    """Verify the snapshot chain at ``src`` and lay its files out under
    ``dest``.

    Returns the snapshot metadata.  The restored layout is exactly the
    newest hop's inventory — copied files from ``src``, reused files
    from the nearest ancestor holding them; ancestor files the newest
    manifest no longer names are left behind.  The caller opens the
    engine on ``dest`` and replays ``dest/wal`` to finish — ``repro
    restore`` does exactly that and compares the recovered root against
    ``meta["root_digest"]``.  A snapshot of the removed in-process
    sharded engine, or one whose manifest this build does not open
    (:func:`load_manifest`), is refused before anything is laid out.
    """
    meta = _single_engine(verify_snapshot(src), src)
    load_manifest(src)
    hops = _chain_hops(src)
    if os.path.exists(dest) and os.listdir(dest):
        raise StorageError(f"restore destination {dest} is not empty")
    os.makedirs(dest, exist_ok=True)
    for rel, source_dir in _resolve_sources(hops).items():
        target = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(os.path.join(source_dir, rel), target)
    return meta
