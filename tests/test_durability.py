"""Durability end-to-end: crash recovery, snapshot/restore, kill -9.

The contract under test: **every acknowledged write survives any crash**.
The in-process tests crash by abandoning the engine (the in-memory level
is lost, exactly as in a process death) or by snapshotting the live file
state; the harness at the bottom SIGKILLs a real ``repro serve --wal``
subprocess mid-load and recovers its workspace.
"""

import asyncio
import os
import re
import shutil
import signal
import subprocess
import sys
import threading

import pytest

from repro.common.errors import IntegrityError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
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
    assert (meta["kind"], meta["num_shards"]) == ("cole", 1)
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
    from repro.common.errors import StorageError

    with pytest.raises(StorageError, match="not empty"):
        snapshot_store(engine, occupied, wal=wal)
    dest = str(tmp_path / "snap")
    snapshot_store(engine, dest, wal=wal)
    with pytest.raises(StorageError, match="not empty"):
        restore_store(dest, occupied)
    wal.close()
    engine.close()


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
