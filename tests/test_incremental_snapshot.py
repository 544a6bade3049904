"""Incremental snapshot chains: snapshot -> delta -> verify -> restore.

An incremental snapshot copies only what changed since its parent —
runs are immutable and run names are never recycled, so a name+size
match up the parent chain proves byte-identity.  Verification walks the
whole chain (every hop's copied files against their crcs, every reused
record against an ancestor that physically holds it), and the SIGKILL
harness at the bottom proves a death mid-copy can never produce a
snapshot that verifies.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.common.errors import IntegrityError, StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.wal import (
    WriteAheadLog,
    replay_wal,
    restore_store,
    snapshot_store,
    verify_snapshot,
)

SYSTEM = SystemParams(addr_size=20, value_size=24)
PARAMS = ColeParams(system=SYSTEM, mem_capacity=64, size_ratio=4)


def addr_of(i: int) -> bytes:
    return hashlib.sha256(f"inc-{i}".encode()).digest()[:20]


def value_of(i: int, blk: int) -> bytes:
    return hashlib.sha256(f"incval-{i}-{blk}".encode()).digest()[:24]


class Store:
    """A WAL-backed store the tests grow between snapshots."""

    def __init__(self, directory: str):
        self.directory = directory
        self.engine = Cole(directory, PARAMS)
        self.wal = WriteAheadLog(os.path.join(directory, "wal"))
        replay_wal(self.engine, self.wal)
        self.blk = self.engine.current_blk

    def load(self, blocks: int, per_block: int = 13) -> None:
        for _ in range(blocks):
            self.blk += 1
            writes = {}
            for n in range(per_block):
                key = (self.blk * 7 + n) % 96
                writes[addr_of(key)] = value_of(key, self.blk)
            batch = sorted(writes.items())
            self.engine.begin_block(self.blk)
            self.wal.append_puts(batch, self.blk)
            self.engine.put_many(batch)
            self.wal.append_commit(self.blk, bytes(self.engine.commit_block()))
        self.engine.wait_for_merges()

    def snapshot(self, dest: str, parent=None) -> dict:
        return snapshot_store(self.engine, dest, wal=self.wal, parent=parent)

    def root(self) -> bytes:
        return self.engine.root_digest()

    def close(self) -> None:
        self.wal.close()
        self.engine.close()


def copied_bytes(meta: dict) -> int:
    return sum(attrs["size"] for attrs in meta["files"].values())


def restore_and_root(snapshot_dir: str, dest: str) -> bytes:
    meta = restore_store(snapshot_dir, dest)
    engine = Cole(dest, PARAMS)
    wal_dir = os.path.join(dest, "wal")
    if meta.get("has_wal") and os.path.isdir(wal_dir):
        wal = WriteAheadLog(wal_dir)
        replay_wal(engine, wal)
        wal.close()
    root = engine.root_digest()
    engine.close()
    return root


# =============================================================================
# the chain: full -> delta -> delta
# =============================================================================

def test_two_hop_chain_verifies_and_restores(tmp_path):
    store = Store(str(tmp_path / "ws"))
    try:
        store.load(34)  # settled: most runs survive the deltas below
        full = store.snapshot(str(tmp_path / "full"))
        root_at_full = store.root()

        store.load(2)
        inc1 = store.snapshot(str(tmp_path / "inc1"), parent=str(tmp_path / "full"))
        root_at_inc1 = store.root()

        store.load(2)
        inc2 = store.snapshot(str(tmp_path / "inc2"), parent=str(tmp_path / "inc1"))
        root_at_inc2 = store.root()
    finally:
        store.close()

    assert "parent" not in full
    assert inc1["parent"] and inc1["parent_root"] == full["root_digest"]
    assert inc2["parent"] and inc2["parent_root"] == inc1["root_digest"]
    # The deltas genuinely reuse the settled base instead of recopying.
    assert inc1["reused"] and inc2["reused"]
    assert copied_bytes(inc1) < copied_bytes(full)
    assert copied_bytes(inc2) < copied_bytes(full)

    for directory in ("full", "inc1", "inc2"):
        verify_snapshot(str(tmp_path / directory))
    # Every hop restores to exactly the root it recorded.
    assert restore_and_root(str(tmp_path / "full"), str(tmp_path / "r-full")) == root_at_full
    assert restore_and_root(str(tmp_path / "inc1"), str(tmp_path / "r-inc1")) == root_at_inc1
    assert restore_and_root(str(tmp_path / "inc2"), str(tmp_path / "r-inc2")) == root_at_inc2


def test_reused_records_carry_ancestor_crcs(tmp_path):
    store = Store(str(tmp_path / "ws"))
    try:
        store.load(34)
        full = store.snapshot(str(tmp_path / "full"))
        store.load(2)
        inc = store.snapshot(str(tmp_path / "inc"), parent=str(tmp_path / "full"))
    finally:
        store.close()
    inventory = dict(full["files"])
    for rel, attrs in inc["reused"].items():
        assert inventory[rel] == attrs  # same size and crc as the parent copy
        assert not os.path.exists(os.path.join(str(tmp_path / "inc"), rel))


def test_incremental_copies_a_pinned_fraction_of_the_full_snapshot(tmp_path):
    """Copied bytes of a full snapshot and a 2-block delta, exactly.

    The stream and the bytes are seed-determined (default system
    params, no WAL), so a delta that recopies a settled run moves them.
    """
    params = ColeParams(mem_capacity=64, async_merge=False)
    addr_size, value_size = params.system.addr_size, params.system.value_size
    engine = Cole(str(tmp_path / "ws"), params)
    blk = 0

    def load(blocks: int) -> None:
        nonlocal blk
        for _ in range(blocks):
            blk += 1
            writes = {
                hashlib.sha256(f"snap-{(blk * 7 + n) % 96}".encode()).digest()[:addr_size]:
                    f"v{blk}.{n}".encode().ljust(value_size, b".")[:value_size]
                for n in range(13)
            }
            engine.begin_block(blk)
            engine.put_many(sorted(writes.items()))
            engine.commit_block()

    try:
        load(34)
        full = snapshot_store(engine, str(tmp_path / "full"))
        load(2)
        inc = snapshot_store(engine, str(tmp_path / "inc"), parent=str(tmp_path / "full"))
    finally:
        engine.close()
    assert (copied_bytes(full), copied_bytes(inc)) == (75124, 17522)  # 4.29x


def mark_sharded(snapshot: str, num_shards: int = 2) -> None:
    """Rewrite ``snapshot``'s record as one of the removed in-process
    sharded engine would have written it."""
    path = os.path.join(snapshot, "SNAPSHOT.json")
    with open(path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    meta.update(kind="sharded", num_shards=num_shards)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def test_parent_with_other_shape_rejected(tmp_path):
    store = Store(str(tmp_path / "ws"))
    try:
        store.load(6)
        store.snapshot(str(tmp_path / "full"))
        mark_sharded(str(tmp_path / "full"))
        store.load(2)
        with pytest.raises(StorageError, match="repro cluster"):
            store.snapshot(str(tmp_path / "inc"), parent=str(tmp_path / "full"))
    finally:
        store.close()
    # The refused snapshot never created a half-written destination.
    assert not os.path.exists(str(tmp_path / "inc"))


def test_restore_refuses_a_sharded_snapshot(tmp_path, capsys):
    store = Store(str(tmp_path / "ws"))
    try:
        store.load(6)
        store.snapshot(str(tmp_path / "snap"))
    finally:
        store.close()
    mark_sharded(str(tmp_path / "snap"))
    dest = str(tmp_path / "restored")
    assert main(["restore", str(tmp_path / "snap"), dest]) == 1
    assert "repro cluster" in capsys.readouterr().err
    # Refused before a single file was laid out.
    assert not os.path.exists(dest)


# =============================================================================
# corruption anywhere in the chain fails verification
# =============================================================================

def build_chain(tmp_path):
    store = Store(str(tmp_path / "ws"))
    try:
        store.load(34)
        full = store.snapshot(str(tmp_path / "full"))
        store.load(2)
        inc = store.snapshot(str(tmp_path / "inc"), parent=str(tmp_path / "full"))
    finally:
        store.close()
    return full, inc


def flip_byte(path: str, offset: int = 3) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0x55]))


def test_corrupt_child_hop_detected(tmp_path):
    full, inc = build_chain(tmp_path)
    flip_byte(os.path.join(str(tmp_path / "inc"), sorted(inc["files"])[0]))
    with pytest.raises(IntegrityError, match="corrupted"):
        verify_snapshot(str(tmp_path / "inc"))
    with pytest.raises(IntegrityError):
        restore_store(str(tmp_path / "inc"), str(tmp_path / "restored"))


def test_corrupt_parent_hop_detected_from_child(tmp_path):
    full, inc = build_chain(tmp_path)
    # Corrupt a parent file the child *reuses*: the child's own files
    # are pristine, so only the chain walk can catch this.
    victim = sorted(inc["reused"])[0]
    flip_byte(os.path.join(str(tmp_path / "full"), victim))
    with pytest.raises(IntegrityError, match="corrupted"):
        verify_snapshot(str(tmp_path / "inc"))
    with pytest.raises(IntegrityError):
        restore_store(str(tmp_path / "inc"), str(tmp_path / "restored"))


def test_missing_parent_detected(tmp_path):
    full, inc = build_chain(tmp_path)
    shutil.rmtree(str(tmp_path / "full"))
    with pytest.raises((IntegrityError, StorageError)):
        verify_snapshot(str(tmp_path / "inc"))


def test_parent_cycle_detected(tmp_path):
    full, inc = build_chain(tmp_path)
    # Point the full snapshot's meta back at the incremental: a cycle.
    meta_path = os.path.join(str(tmp_path / "full"), "SNAPSHOT.json")
    with open(meta_path) as handle:
        meta = json.load(handle)
    meta["parent"] = os.path.join("..", "inc")
    with open(meta_path, "w") as handle:
        json.dump(meta, handle)
    with pytest.raises(IntegrityError, match="cycle"):
        verify_snapshot(str(tmp_path / "inc"))


# =============================================================================
# the CLI surface: --incremental-from, --verify-only
# =============================================================================

def load_cli_workspace(directory: str, blocks: int):
    """Grow a workspace in the CLI's own geometry (``_open_engine``:
    default system params, mem_capacity 512, async merges) so the root
    the CLI recovers equals the root recorded here."""
    params = ColeParams(async_merge=True, mem_capacity=512)
    engine = Cole(directory, params)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    replay_wal(engine, wal)
    blk = engine.current_blk
    for _ in range(blocks):
        blk += 1
        writes = {}
        for n in range(24):
            digest = hashlib.sha256(f"cli-{blk}-{n}".encode()).digest()
            writes[digest] = (digest + digest)[: params.system.value_size]
        batch = sorted(writes.items())
        engine.begin_block(blk)
        wal.append_puts(batch, blk)
        engine.put_many(batch)
        wal.append_commit(blk, bytes(engine.commit_block()))
    engine.wait_for_merges()
    root = engine.root_digest()
    wal.close()
    engine.close()
    return root


def test_cli_incremental_chain_round_trip(tmp_path, capsys):
    workspace = str(tmp_path / "ws")
    load_cli_workspace(workspace, 40)
    assert main(["snapshot", workspace, str(tmp_path / "full")]) == 0

    live_root = load_cli_workspace(workspace, 2)
    assert (
        main(
            [
                "snapshot", workspace, str(tmp_path / "inc"),
                "--incremental-from", str(tmp_path / "full"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "reused from" in out

    assert main(["snapshot", "--verify-only", str(tmp_path / "inc")]) == 0
    out = capsys.readouterr().out
    assert "(incremental) OK" in out

    assert main(["restore", str(tmp_path / "inc"), str(tmp_path / "restored")]) == 0
    out = capsys.readouterr().out
    assert "root digest matches the snapshot record" in out
    assert live_root.hex() in out


def test_cli_verify_only_fails_on_corruption(tmp_path, capsys):
    full, inc = build_chain(tmp_path)
    flip_byte(os.path.join(str(tmp_path / "full"), sorted(inc["reused"])[0]))
    assert main(["snapshot", "--verify-only", str(tmp_path / "inc")]) == 1
    assert "snapshot verification FAILED" in capsys.readouterr().out


def test_cli_verify_only_rejects_extra_arguments(tmp_path, capsys):
    assert (
        main(
            [
                "snapshot", str(tmp_path / "ws"), str(tmp_path / "snap"),
                "--verify-only", str(tmp_path / "other"),
            ]
        )
        == 2
    )
    assert "verify-only" in capsys.readouterr().err


# =============================================================================
# fault injection: SIGKILL mid-incremental-snapshot
# =============================================================================

KILLER_SCRIPT = """
import sys, time

# Slow every copied chunk down so the parent process can land a SIGKILL
# mid-copy deterministically.
import zlib
import repro.wal.snapshot as snap

real_crc32 = zlib.crc32

class SlowZlib:
    @staticmethod
    def crc32(data, value=0):
        time.sleep(0.05)
        return real_crc32(data, value)

snap.zlib = SlowZlib()

import os
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.wal import WriteAheadLog, replay_wal, snapshot_store

workspace, dest, parent = sys.argv[1], sys.argv[2], sys.argv[3]
params = ColeParams(
    system=SystemParams(addr_size=20, value_size=24),
    mem_capacity=64,
    size_ratio=4,
)
engine = Cole(workspace, params)
wal = WriteAheadLog(os.path.join(workspace, "wal"))
replay_wal(engine, wal)
print("READY", flush=True)
snapshot_store(engine, dest, wal=wal, parent=parent)
print("DONE", flush=True)
"""


def test_kill9_mid_incremental_snapshot_never_verifies(tmp_path):
    """SIGKILL while the delta is half-copied: the wreck must fail
    verification (the meta is written last, atomically), the parent must
    stay pristine, and a clean retry must produce a restorable chain."""
    store = Store(str(tmp_path / "ws"))
    store.load(34)
    store.snapshot(str(tmp_path / "full"))
    store.load(2)
    live_root = store.root()
    store.close()

    script = tmp_path / "killer.py"
    script.write_text(KILLER_SCRIPT)
    dest = str(tmp_path / "inc")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", str(script),
            str(tmp_path / "ws"), dest, str(tmp_path / "full"),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == "READY"
        # Wait for the copy to genuinely start, then kill -9.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.isdir(dest) and os.listdir(dest):
                break
            time.sleep(0.01)
        else:
            raise AssertionError("snapshot never started copying")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=15)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == -signal.SIGKILL

    # The half-written snapshot has no meta and must never verify.
    assert not os.path.exists(os.path.join(dest, "SNAPSHOT.json"))
    with pytest.raises((IntegrityError, StorageError)):
        verify_snapshot(dest)
    # The parent chain it was copying against is untouched.
    verify_snapshot(str(tmp_path / "full"))

    # Operator flow: clear the wreck, retry, restore.
    shutil.rmtree(dest)
    store = Store(str(tmp_path / "ws"))
    store.snapshot(dest, parent=str(tmp_path / "full"))
    store.close()
    verify_snapshot(dest)
    assert restore_and_root(dest, str(tmp_path / "restored")) == live_root
