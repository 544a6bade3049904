"""Durability end-to-end: crash recovery, snapshot/restore, kill -9.

The contract under test: **every acknowledged write survives any crash**.
The in-process tests crash by abandoning the engine (the in-memory level
is lost, exactly as in a process death) or by snapshotting the live file
state; the harness at the bottom SIGKILLs a real ``repro serve --wal``
subprocess mid-load and recovers its workspace.
"""

import asyncio
import errno
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import zlib

import pytest

import repro.wal.snapshot as snapshot_module
from repro.cli import main
from repro.common.errors import IntegrityError, StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.core.run import RUN_SUFFIXES
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.wal import (
    WriteAheadLog,
    replay_wal,
    restore_store,
    snapshot_store,
    verify_snapshot,
)

ADDR = 20
VALUE = 24
PARAMS = ColeParams(
    system=SystemParams(addr_size=ADDR, value_size=VALUE),
    mem_capacity=64,
    size_ratio=2,
    async_merge=True,
)


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 6


def abandon(engine, wal) -> None:
    """Simulate a crash: close file handles without flushing state.

    The in-memory level is lost — exactly what a process death costs —
    while the on-disk files stay whatever the last fsyncs made them.
    """
    engine.wait_for_merges()
    engine.scheduler.close()
    engine.workspace.close()
    wal.close()


async def drive_puts(host, port, count, start=0):
    async with ServerClient(host, port) as client:
        heights = []
        for n in range(start, start + count):
            heights.append(await client.put(addr_of(n), value_of(n)))
        return heights


# =============================================================================
# crash recovery through the server stack
# =============================================================================

def test_acked_writes_survive_engine_loss(tmp_path):
    directory = str(tmp_path / "ws")
    engine = Cole(directory, PARAMS)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    config = ServerConfig(batch_max_puts=16, batch_max_delay=60.0)
    with ServerThread(engine, config=config, wal=wal) as thread:
        heights = asyncio.run(drive_puts(*thread.start(), count=50))
    live_root = engine.root_digest()
    abandon(engine, wal)

    recovered = Cole(directory, PARAMS)
    wal2 = WriteAheadLog(os.path.join(directory, "wal"))
    stats = replay_wal(recovered, wal2)
    assert stats.puts_replayed + stats.puts_skipped_durable == 50
    assert recovered.root_digest() == live_root
    for n, height in enumerate(heights):
        assert recovered.get(addr_of(n)) == value_of(n)
        assert recovered.get_at(addr_of(n), height) == value_of(n)
    wal2.close()
    recovered.close()


def test_replay_is_idempotent(tmp_path):
    directory = str(tmp_path / "ws")
    engine = Cole(directory, PARAMS)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    config = ServerConfig(batch_max_puts=8, batch_max_delay=60.0)
    with ServerThread(engine, config=config, wal=wal) as thread:
        asyncio.run(drive_puts(*thread.start(), count=30))
    abandon(engine, wal)

    recovered = Cole(directory, PARAMS)
    wal2 = WriteAheadLog(os.path.join(directory, "wal"))
    replay_wal(recovered, wal2)
    root_once = recovered.root_digest()
    replay_wal(recovered, wal2)  # a second replay must change nothing
    assert recovered.root_digest() == root_once
    wal2.close()
    recovered.close()


def test_recovery_is_deterministic_across_copies(tmp_path):
    """Two independent recoveries of the same crashed state agree."""
    directory = str(tmp_path / "ws")
    engine = Cole(directory, PARAMS)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    config = ServerConfig(batch_max_puts=16, batch_max_delay=60.0)
    with ServerThread(engine, config=config, wal=wal) as thread:
        asyncio.run(drive_puts(*thread.start(), count=70))
    abandon(engine, wal)

    copy = str(tmp_path / "copy")
    shutil.copytree(directory, copy)
    roots = []
    for workspace in (directory, copy):
        recovered = Cole(workspace, PARAMS)
        wal2 = WriteAheadLog(os.path.join(workspace, "wal"))
        replay_wal(recovered, wal2)
        roots.append(recovered.root_digest())
        wal2.close()
        recovered.close()
    assert roots[0] == roots[1]


def test_server_restart_replays_wal_before_serving(tmp_path):
    """A restarted server answers reads from recovered state at once."""
    directory = str(tmp_path / "ws")
    engine = Cole(directory, PARAMS)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    config = ServerConfig(batch_max_puts=16, batch_max_delay=60.0)
    with ServerThread(engine, config=config, wal=wal) as thread:
        asyncio.run(drive_puts(*thread.start(), count=40))
    abandon(engine, wal)

    recovered = Cole(directory, PARAMS)
    wal2 = WriteAheadLog(os.path.join(directory, "wal"))

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for n in range(40):
                assert await client.get(addr_of(n)) == value_of(n)
            stats = await client.stats()
            assert stats["wal"]["replayed_puts"] == 40
            assert stats["wal"]["policy"] == "batch"
            # New writes continue above every recovered height.
            height = await client.put(addr_of(99), value_of(99))
            assert height > max(
                recovered.current_blk - 1, 0
            )

    with ServerThread(recovered, config=config, wal=wal2) as thread:
        asyncio.run(scenario(*thread.start()))
        assert thread.server.replay_stats is not None
        assert thread.server.replay_stats.blocks_replayed > 0
    wal2.close()
    recovered.close()


def test_wal_truncates_once_checkpoints_cover_it(tmp_path):
    """Cascades advance the engine checkpoint; covered segments go away."""
    directory = str(tmp_path / "ws")
    engine = Cole(directory, PARAMS)  # mem_capacity 64: cascades early
    wal = WriteAheadLog(
        os.path.join(directory, "wal"), segment_max_bytes=1024
    )
    config = ServerConfig(batch_max_puts=16, batch_max_delay=60.0)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for round_no in range(6):
                for n in range(40):
                    await client.put(addr_of(n), value_of(round_no * 100 + n))
                await client.flush()
            return await client.stats()

    with ServerThread(engine, config=config, wal=wal) as thread:
        stats = asyncio.run(scenario(*thread.start()))
    assert engine.checkpoint_blk > 0
    assert stats["wal"]["truncated_segments"] > 0
    wal.close()
    engine.close()


# =============================================================================
# snapshot / restore
# =============================================================================

def build_served_store(tmp_path, count=60):
    directory = str(tmp_path / "ws")
    engine = Cole(directory, PARAMS)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    config = ServerConfig(batch_max_puts=16, batch_max_delay=60.0)
    with ServerThread(engine, config=config, wal=wal) as thread:
        asyncio.run(drive_puts(*thread.start(), count=count))
    return directory, engine, wal


def test_snapshot_restore_round_trip(tmp_path):
    directory, engine, wal = build_served_store(tmp_path)
    live_root = engine.root_digest()
    dest = str(tmp_path / "snap")
    meta = snapshot_store(engine, dest, wal=wal)
    assert meta["root_digest"] == live_root.hex()
    assert meta["format"] == 3
    # The source store keeps serving after the snapshot.
    assert engine.get(addr_of(1)) == value_of(1)
    wal.close()
    engine.close()

    restored_dir = str(tmp_path / "restored")
    restore_store(dest, restored_dir)
    restored = Cole(restored_dir, PARAMS)
    wal2 = WriteAheadLog(os.path.join(restored_dir, "wal"))
    replay_wal(restored, wal2)
    assert restored.root_digest() == live_root
    for n in range(60):
        assert restored.get(addr_of(n)) == value_of(n)
    wal2.close()
    restored.close()


def test_snapshot_detects_corruption(tmp_path):
    directory, engine, wal = build_served_store(tmp_path, count=30)
    dest = str(tmp_path / "snap")
    meta = snapshot_store(engine, dest, wal=wal)
    wal.close()
    engine.close()
    verify_snapshot(dest)  # pristine: passes
    victim = os.path.join(dest, sorted(meta["files"])[0])
    with open(victim, "r+b") as handle:
        handle.seek(0)
        original = handle.read(1)
        handle.seek(0)
        handle.write(bytes([original[0] ^ 0xFF]))
    with pytest.raises(IntegrityError, match="corrupted"):
        verify_snapshot(dest)
    with pytest.raises(IntegrityError):
        restore_store(dest, str(tmp_path / "restored"))


def test_snapshot_and_restore_refuse_nonempty_destinations(tmp_path):
    directory, engine, wal = build_served_store(tmp_path, count=10)
    occupied = str(tmp_path / "occupied")
    os.makedirs(occupied)
    with open(os.path.join(occupied, "file"), "w") as handle:
        handle.write("x")
    with pytest.raises(StorageError, match="not empty"):
        snapshot_store(engine, occupied, wal=wal)
    dest = str(tmp_path / "snap")
    snapshot_store(engine, dest, wal=wal)
    with pytest.raises(StorageError, match="not empty"):
        restore_store(dest, occupied)
    wal.close()
    engine.close()


def open_wal_store(directory):
    engine = Cole(directory, PARAMS)
    return engine, WriteAheadLog(os.path.join(directory, "wal"))


def load_blocks(engine, wal, blocks, per_block=13):
    """``blocks`` more blocks of ``per_block`` puts over 96 recurring
    addresses, logged to ``wal`` first when one is given."""
    for _ in range(blocks):
        blk = engine.last_blk + 1
        batch = sorted(
            {addr_of((blk * 7 + n) % 96): value_of(blk * 100 + n) for n in range(per_block)}.items()
        )
        engine.begin_block(blk)
        if wal is not None:
            wal.append_puts(batch, blk)
        engine.put_many(batch)
        root = engine.commit_block()
        if wal is not None:
            wal.append_commit(blk, bytes(root))
    engine.wait_for_merges()


def run_files(meta):
    return sorted(rel for rel in meta["files"] if rel.endswith(RUN_SUFFIXES))


def inode(path):
    return os.stat(path).st_ino


def restore_and_root(snapshot, dest):
    meta = restore_store(snapshot, dest)
    engine = Cole(dest, PARAMS)
    if meta["has_wal"]:
        wal = WriteAheadLog(os.path.join(dest, "wal"))
        replay_wal(engine, wal)
        wal.close()
    root = engine.root_digest()
    engine.close()
    return root


def test_a_checkpoint_links_runs_and_copies_only_the_manifest_and_wal(tmp_path):
    directory = str(tmp_path / "ws")
    engine, wal = open_wal_store(directory)
    load_blocks(engine, wal, 20)
    first = snapshot_store(engine, str(tmp_path / "first"), wal=wal)
    second = snapshot_store(engine, str(tmp_path / "second"), wal=wal)
    wal.close()
    engine.close()
    runs = run_files(first)
    assert runs and run_files(second) == runs
    assert second["root_digest"] == first["root_digest"]
    for snap in ("first", "second"):
        for rel in runs:
            assert inode(tmp_path / snap / rel) == inode(os.path.join(directory, rel))
    # The second checkpoint of the unchanged store wrote new bytes only
    # for the manifest and the WAL segments.
    copied = {
        rel for rel in second["files"]
        if inode(tmp_path / "second" / rel) != inode(os.path.join(directory, rel))
    }
    assert copied == set(second["files"]) - set(runs)
    assert all(rel == "MANIFEST.json" or rel.startswith("wal/") for rel in copied)
    assert sum(second["files"][rel]["size"] for rel in copied) < sum(
        second["files"][rel]["size"] for rel in runs
    )


def test_snapshot_and_restore_copy_when_a_link_crosses_filesystems(tmp_path, monkeypatch):
    directory = str(tmp_path / "ws")
    engine, wal = open_wal_store(directory)
    load_blocks(engine, wal, 20)
    live_root = engine.root_digest()

    def cross_device(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link", src)

    monkeypatch.setattr(os, "link", cross_device)
    snap = str(tmp_path / "snap")
    meta = snapshot_store(engine, snap, wal=wal)
    wal.close()
    engine.close()
    assert meta["root_digest"] == live_root.hex()
    dest = str(tmp_path / "restored")
    assert restore_and_root(snap, dest) == live_root
    for rel in run_files(meta):
        assert inode(os.path.join(snap, rel)) != inode(os.path.join(directory, rel))
        assert inode(os.path.join(dest, rel)) != inode(os.path.join(snap, rel))


def test_a_checkpoint_outlives_the_merges_that_delete_its_runs(tmp_path):
    directory = str(tmp_path / "ws")
    engine, wal = open_wal_store(directory)
    load_blocks(engine, wal, 20)
    snap = str(tmp_path / "snap")
    meta = snapshot_store(engine, snap, wal=wal)
    runs = run_files(meta)
    assert runs
    for _ in range(100):
        if not any(os.path.exists(os.path.join(directory, rel)) for rel in runs):
            break
        load_blocks(engine, wal, 4)
    else:
        raise AssertionError("the workspace never merged the checkpointed runs away")
    wal.close()
    engine.close()
    verify_snapshot(snap)
    assert restore_and_root(snap, str(tmp_path / "restored")).hex() == meta["root_digest"]


def test_a_workspace_restored_by_link_merges_its_runs_away_safely(tmp_path):
    engine, wal = open_wal_store(str(tmp_path / "ws"))
    load_blocks(engine, wal, 20)
    snap = str(tmp_path / "snap")
    meta = snapshot_store(engine, snap, wal=wal)
    wal.close()
    engine.close()
    dest = str(tmp_path / "restored")
    restore_store(snap, dest)
    runs = run_files(meta)
    for rel in runs:
        assert inode(os.path.join(dest, rel)) == inode(os.path.join(snap, rel))
    restored, restored_wal = open_wal_store(dest)
    replay_wal(restored, restored_wal)
    assert restored.root_digest().hex() == meta["root_digest"]
    for _ in range(100):
        if not any(os.path.exists(os.path.join(dest, rel)) for rel in runs):
            break
        load_blocks(restored, restored_wal, 4)
    else:
        raise AssertionError("the restored workspace never merged its runs away")
    restored_wal.close()
    restored.close()
    verify_snapshot(snap)


def test_snapshot_holds_the_gate_only_to_capture(tmp_path, monkeypatch):
    """Every crc32 is computed after the gate is released: a writer's
    blocks never wait on the checksums, however slow they are."""
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    load_blocks(engine, None, 10)
    real_crc32 = zlib.crc32

    class SlowZlib:
        @staticmethod
        def crc32(data, value=0):
            time.sleep(0.5)
            return real_crc32(data, value)

    monkeypatch.setattr(snapshot_module, "zlib", SlowZlib)
    durations = []
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            started = time.perf_counter()
            blk = engine.last_blk + 1
            engine.begin_block(blk)
            engine.put_many([(addr_of(blk % 96), value_of(blk))])
            engine.commit_block()
            durations.append(time.perf_counter() - started)
            time.sleep(0.01)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        meta = snapshot_store(engine, str(tmp_path / "snap"))
    finally:
        stop.set()
        thread.join()
    engine.wait_for_merges()
    engine.close()
    assert len(meta["files"]) == 5  # a run and the manifest: 2.5 s of checksums
    assert max(durations) < 0.25, max(durations)
    assert len(durations) >= 20  # the writer ran all along


def test_snapshot_is_durable_when_it_returns(tmp_path, monkeypatch):
    """Every listed file, linked or copied, is fsynced, then ``wal/``,
    then the record, then the snapshot directory: a durable record
    implies every name it lists is durable."""
    engine, wal = open_wal_store(str(tmp_path / "ws"))
    load_blocks(engine, wal, 20)
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    snap = tmp_path / "snap"
    meta = snapshot_store(engine, str(snap), wal=wal)
    monkeypatch.undo()
    wal.close()
    engine.close()
    files = {inode(snap / rel) for rel in meta["files"]}
    assert run_files(meta) and any(rel.startswith("wal/") for rel in meta["files"])
    assert set(synced[: len(files)]) == files
    assert synced[len(files) :] == [
        inode(snap / "wal"),
        inode(snap / "SNAPSHOT.json"),
        inode(snap),
    ]


def format_2_chained(snap, meta):
    """Rewrite ``meta`` as a chained format-2 snapshot would have
    recorded it: one run file reused from a parent that is gone."""
    reused = run_files(meta)[0]
    os.remove(os.path.join(snap, reused))
    return dict(
        meta, format=2, kind="cole", num_shards=1, parent="../full",
        parent_root=meta["root_digest"], reused={reused: meta["files"].pop(reused)},
    )


def format_2_sharded(snap, meta):
    return dict(meta, format=2, kind="sharded", num_shards=2)


@pytest.mark.parametrize("legacy", [format_2_chained, format_2_sharded], ids=["chained", "sharded"])
def test_restore_refuses_a_format_2_snapshot_before_laying_out_a_file(tmp_path, capsys, legacy):
    engine, wal = open_wal_store(str(tmp_path / "ws"))
    load_blocks(engine, wal, 20)
    snap = str(tmp_path / "snap")
    meta = snapshot_store(engine, snap, wal=wal)
    wal.close()
    engine.close()
    with open(os.path.join(snap, "SNAPSHOT.json"), "w", encoding="utf-8") as handle:
        json.dump(legacy(snap, meta), handle)
    with pytest.raises(StorageError, match="repro export"):
        verify_snapshot(snap)
    dest = str(tmp_path / "restored")
    with pytest.raises(StorageError, match="repro export"):
        restore_store(snap, dest)
    assert main(["restore", snap, dest]) == 1
    assert "repro export" in capsys.readouterr().err
    assert not os.path.exists(dest)


KILLER_SCRIPT = """
import sys, time

# Slow every checksummed chunk down so the parent process lands a
# SIGKILL after the capture and before SNAPSHOT.json, deterministically.
import zlib
import repro.wal.snapshot as snap

real_crc32 = zlib.crc32

class SlowZlib:
    @staticmethod
    def crc32(data, value=0):
        time.sleep(0.2)
        return real_crc32(data, value)

snap.zlib = SlowZlib()

import os
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.wal import WriteAheadLog, replay_wal, snapshot_store

workspace, dest = sys.argv[1], sys.argv[2]
params = ColeParams(
    system=SystemParams(addr_size=20, value_size=24),
    mem_capacity=64,
    size_ratio=2,
    async_merge=True,
)
engine = Cole(workspace, params)
wal = WriteAheadLog(os.path.join(workspace, "wal"))
replay_wal(engine, wal)
engine.wait_for_merges()
print("READY", flush=True)
snapshot_store(engine, dest, wal=wal)
print("DONE", flush=True)
"""


def workspace_state(directory):
    """Every file under ``directory`` with its bytes."""
    state = {}
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                state[os.path.relpath(path, directory)] = handle.read()
    return state


def test_kill9_mid_snapshot_never_verifies(tmp_path):
    """SIGKILL after the capture, while the checkpoint is checksummed:
    the wreck must fail verification (the record is written last,
    atomically), the workspace must be untouched, and a clean retry
    must restore the live root."""
    directory = str(tmp_path / "ws")
    engine, wal = open_wal_store(directory)
    load_blocks(engine, wal, 20)
    live_root = engine.root_digest()
    wal.close()
    engine.close()

    script = tmp_path / "killer.py"
    script.write_text(KILLER_SCRIPT)
    dest = str(tmp_path / "snap")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-u", str(script), directory, dest],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    with proc.stdout:  # left open, the pipe leaks a file
        try:
            assert proc.stdout.readline().strip() == "READY"
            before = workspace_state(directory)
            # The manifest copy is written once the gate is released and
            # before the first checksum: kill -9 then.
            deadline = time.monotonic() + 30.0
            while not os.path.exists(os.path.join(dest, "MANIFEST.json")):
                if time.monotonic() > deadline:
                    raise AssertionError("snapshot never captured the store")
                time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
    assert proc.returncode == -signal.SIGKILL

    # The half-written snapshot has no record and must never verify.
    assert not os.path.exists(os.path.join(dest, "SNAPSHOT.json"))
    with pytest.raises(StorageError):
        verify_snapshot(dest)
    assert workspace_state(directory) == before

    # Operator flow: clear the wreck, retry, restore.
    shutil.rmtree(dest)
    engine, wal = open_wal_store(directory)
    replay_wal(engine, wal)
    snapshot_store(engine, dest, wal=wal)
    wal.close()
    engine.close()
    verify_snapshot(dest)
    assert restore_and_root(dest, str(tmp_path / "restored")) == live_root


# =============================================================================
# the fault-injection harness: SIGKILL a serving subprocess mid-load
# =============================================================================

KILL_AFTER_ACKS = 120


def _spawn_server(workspace):
    """Start ``repro serve --wal`` in a subprocess; returns (proc, port)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve", workspace,
            "--port", "0", "--wal", "--mem-capacity", "128",
            "--batch-puts", "32", "--batch-delay-ms", "20",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    lines = []
    port_holder = {}
    ready = threading.Event()

    def pump():
        # The pipe is this thread's to close: at EOF, once the server has
        # exited (left open, it leaks a file).
        with proc.stdout:
            for line in proc.stdout:
                lines.append(line)
                match = re.search(r"serving .* on [\d.]+:(\d+)", line)
                if match:
                    port_holder["port"] = int(match.group(1))
                    ready.set()
        ready.set()  # EOF: unblock the waiter either way

    threading.Thread(target=pump, daemon=True).start()
    if not ready.wait(timeout=30.0) or "port" not in port_holder:
        proc.kill()
        raise AssertionError(f"server never came up:\n{''.join(lines)}")
    return proc, port_holder["port"]


def _open_as_served(workspace):
    """The engine ``_spawn_server``'s ``repro serve`` opens."""
    return Cole(workspace, ColeParams(async_merge=True, mem_capacity=128))


def test_kill9_mid_load_loses_no_acked_write(tmp_path):
    """SIGKILL during load; recovery replays the WAL and every acked
    write is present — with the same root hash as a clean in-process run
    of the same writes."""
    workspace = str(tmp_path / "ws")
    proc, port = _spawn_server(workspace)
    acked = []  # (addr, height, value), in ack order
    inflight = {}

    def addr32(n):
        return n.to_bytes(4, "big") * 8

    def value40(n):
        return (n * 7 + 1).to_bytes(4, "big") * 10

    async def drive():
        client = ServerClient("127.0.0.1", port)
        await client.connect()
        try:
            for n in range(5000):
                addr = addr32(n)
                value = value40(n)
                inflight["op"] = (addr, value)
                try:
                    height = await client.put(addr, value)
                except Exception:
                    return  # the server died under us — expected
                acked.append((addr, height, value))
                inflight.pop("op", None)
                if len(acked) == KILL_AFTER_ACKS:
                    os.kill(proc.pid, signal.SIGKILL)
            raise AssertionError("server outlived the kill")
        finally:
            try:
                await client.close()
            except Exception:
                pass

    asyncio.run(drive())
    proc.wait(timeout=15)
    assert len(acked) >= KILL_AFTER_ACKS

    # Keep a pristine copy of the crashed state for the determinism check.
    copy = str(tmp_path / "copy")
    shutil.copytree(workspace, copy)

    # Recover with the same parameters `repro serve` used.
    recovered = _open_as_served(workspace)
    wal = WriteAheadLog(os.path.join(workspace, "wal"))
    stats = replay_wal(recovered, wal)
    assert stats.records_scanned > 0

    # 1. Every acked write is present, byte-identical, at its acked height.
    for addr, height, value in acked:
        assert recovered.get_at(addr, height) == value
        assert recovered.get(addr) == value  # unique keys: latest == acked

    # 2. Same root hash as a clean run: apply the acked writes directly
    # to a fresh engine at the same heights.  The closed loop had at most
    # one op in flight when the server died; the crash may or may not
    # have persisted it, at the last acked height or one above — so the
    # recovered root must match one of the three possible clean runs.
    def clean_root(extra=None):
        clean_dir = os.path.join(str(tmp_path), f"clean-{len(os.listdir(str(tmp_path)))}")
        clean = _open_as_served(clean_dir)
        by_height = {}
        for addr, height, value in acked:
            by_height.setdefault(height, []).append((addr, value))
        if extra is not None:
            addr, height, value = extra
            by_height.setdefault(height, []).append((addr, value))
        for height in sorted(by_height):
            clean.begin_block(height)
            clean.put_many(by_height[height])
            clean.commit_block()
        root = clean.root_digest()
        clean.close()
        return root

    last_height = max(height for _addr, height, _value in acked)
    candidates = {clean_root()}
    if "op" in inflight:
        addr, value = inflight["op"]
        candidates.add(clean_root((addr, last_height, value)))
        candidates.add(clean_root((addr, last_height + 1, value)))
    recovered_root = recovered.root_digest()
    assert recovered_root in candidates

    # 3. Recovery is deterministic: an independent recovery of the same
    # crashed bytes lands on the identical root.
    wal.close()
    recovered.close()
    twin = _open_as_served(copy)
    twin_wal = WriteAheadLog(os.path.join(copy, "wal"))
    replay_wal(twin, twin_wal)
    assert twin.root_digest() == recovered_root
    twin_wal.close()
    twin.close()
