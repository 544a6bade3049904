"""Replication end-to-end: WAL shipping, root equality, failover.

The contract under test: a replica that applies the primary's streamed
WAL records reaches a **byte-identical** state root at every commit
height — COLE's deterministic commit checkpoints make root equality the
correctness oracle — while serving reads and rejecting writes with a
``NOT_PRIMARY`` referral.  The harness at the bottom SIGKILLs a real
primary subprocess and checks the replica rides out the outage and
resumes once the primary recovers.
"""

import asyncio
import dataclasses
import os
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.server import (
    ColeServer,
    NotPrimaryError,
    ServerClient,
    ServerConfig,
    ServerThread,
    protocol,
)
from repro.wal import WriteAheadLog, replay_wal, restore_store, snapshot_store

from raw_frames import read_frame

ADDR = 20
VALUE = 24
PARAMS = ColeParams(
    system=SystemParams(addr_size=ADDR, value_size=VALUE),
    mem_capacity=256,
    size_ratio=2,
    async_merge=True,
)


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 6


async def wait_for_height(client: ServerClient, height: int, timeout_s=10.0):
    """Poll ROOT until the server reaches ``height``; returns the RootInfo."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        info = await client.root()
        if info.height >= height:
            return info
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"server stuck at height {info.height} < {height}"
            )
        await asyncio.sleep(0.02)


def primary_stack(tmp_path, name="primary", params=PARAMS, **config_kwargs):
    directory = str(tmp_path / name)
    engine = Cole(directory, params)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    config_kwargs.setdefault("batch_max_puts", 16)
    config_kwargs.setdefault("batch_max_delay", 0.01)
    thread = ServerThread(engine, config=ServerConfig(**config_kwargs), wal=wal)
    return engine, wal, thread


# =============================================================================
# streaming + root equality
# =============================================================================

def test_replica_matches_primary_root_at_every_commit_height(tmp_path):
    """Waves of writes; after each group commit the replica must reach
    the same height with the byte-identical root, while serving reads."""
    engine, wal, primary = primary_stack(tmp_path)
    replica_engine = Cole(str(tmp_path / "replica"), PARAMS)
    with primary:
        phost, pport = primary.start()
        with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
            rhost, rport = rt.start()

            async def scenario():
                async with ServerClient(phost, pport) as pc, \
                        ServerClient(rhost, rport) as rc:
                    for wave in range(4):
                        for n in range(wave * 30, (wave + 1) * 30):
                            await pc.put(addr_of(n), value_of(n))
                        info = await pc.flush()
                        rinfo = await wait_for_height(rc, info.height)
                        assert rinfo.height == info.height
                        assert rinfo.digest == info.digest  # byte-identical
                        # Reads served from the replica, mid-replication.
                        probe = wave * 30
                        assert await rc.get(addr_of(probe)) == value_of(probe)
                        assert await rc.get_at(
                            addr_of(probe), info.height
                        ) == value_of(probe)
                        # Range scans serve from the replica too (no
                        # batcher there: its state is all committed).
                        rows = await rc.scan(
                            addr_of(probe), addr_of(probe + 2), page_size=2
                        )
                        assert [r[0] for r in rows] == [
                            addr_of(probe + i) for i in range(3)
                        ]
                        assert [r[2] for r in rows] == [
                            value_of(probe + i) for i in range(3)
                        ]
                    stats = await rc.stats()
                    repl = stats["replication"]
                    assert repl["role"] == "replica"
                    assert repl["connected"] and not repl["diverged"]
                    assert repl["lag_blocks"] == 0
                    assert repl["batches_applied"] > 0
                    assert "batcher" not in stats  # replicas buffer nothing
                    pstats = await pc.stats()
                    assert pstats["replication"]["role"] == "primary"
                    assert pstats["replication"]["subscribers"] == 1
                    assert pstats["replication"]["batches_published"] > 0

            asyncio.run(scenario())
    wal.close()
    engine.close()
    replica_engine.close()


# =============================================================================
# write rejection + client redirect
# =============================================================================

def test_replica_rejects_writes_with_primary_referral(tmp_path):
    engine, wal, primary = primary_stack(tmp_path)
    replica_engine = Cole(str(tmp_path / "replica"), PARAMS)
    with primary:
        phost, pport = primary.start()
        with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
            rhost, rport = rt.start()

            async def scenario():
                async with ServerClient(rhost, rport) as rc:
                    with pytest.raises(NotPrimaryError) as put_exc:
                        await rc.put(addr_of(1), value_of(1))
                    assert put_exc.value.address == f"{phost}:{pport}"
                    with pytest.raises(NotPrimaryError):
                        await rc.flush()

            asyncio.run(scenario())
    wal.close()
    engine.close()
    replica_engine.close()


def test_replica_divergence_is_a_crash_stop(tmp_path):
    """A COLE* replica of a COLE primary diverges on the first block (the
    two modes' roots differ at every block): the applier freezes for
    good, ROOT and STATS keep naming the last verified commit, and reads
    are still answered."""
    # The 8 PUTs must share one group commit: no timer fires before FLUSH.
    engine, wal, primary = primary_stack(
        tmp_path, params=dataclasses.replace(PARAMS, async_merge=False), batch_max_delay=60.0
    )
    replica_engine = Cole(str(tmp_path / "replica"), PARAMS)
    verified = replica_engine.root_digest()
    try:
        with primary:
            phost, pport = primary.start()
            with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
                rhost, rport = rt.start()

                async def scenario():
                    async with ServerClient(phost, pport) as pc:
                        for n in range(8):
                            await pc.put(addr_of(n), value_of(n))
                        info = await pc.flush()
                    assert info.height == 1
                    async with ServerClient(rhost, rport) as rc:
                        for _ in range(500):
                            repl = (await rc.stats())["replication"]
                            if repl["diverged"]:
                                break
                            await asyncio.sleep(0.02)
                        assert repl["diverged"]
                        assert "divergence at height 1" in repl["last_error"]
                        assert repl["applied_height"] == 0
                        root = await rc.root()
                        assert (root.height, root.digest) == (0, verified)
                        assert await rc.get(addr_of(10_000)) is None
                        assert await rc.get(addr_of(10_000)) is None  # cached
                    return repl["subscribes"]

                assert asyncio.run(scenario()) == 1
                # The applier task ended: it does not reconnect and retry.
                assert rt.server.committer._task.done()
    finally:
        wal.close()
        engine.close()
        replica_engine.close()


# =============================================================================
# snapshot bootstrap + catch-up
# =============================================================================

def test_replica_bootstraps_from_snapshot_then_tails_the_stream(tmp_path):
    engine, wal, primary = primary_stack(tmp_path)
    with primary:
        phost, pport = primary.start()

        async def preload():
            async with ServerClient(phost, pport) as pc:
                for n in range(60):
                    await pc.put(addr_of(n), value_of(n))
                return await pc.flush()

        snap_info = asyncio.run(preload())
        snapshot = str(tmp_path / "snap")
        snapshot_store(engine, snapshot, wal=wal)

        # The repro serve --replica-of --bootstrap-from flow, in-process:
        # restore, replay the copied WAL tail, then subscribe.
        replica_ws = str(tmp_path / "replica")
        restore_store(snapshot, replica_ws)
        replica_engine = Cole(replica_ws, PARAMS)
        boot_wal = WriteAheadLog(os.path.join(replica_ws, "wal"))
        replay_wal(replica_engine, boot_wal)
        boot_wal.close()
        assert replica_engine.root_digest() == snap_info.digest

        with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
            rhost, rport = rt.start()

            async def scenario():
                async with ServerClient(phost, pport) as pc, \
                        ServerClient(rhost, rport) as rc:
                    # The subscribe starts at the snapshot height, so the
                    # replica must only receive the delta.
                    for n in range(60, 100):
                        await pc.put(addr_of(n), value_of(n))
                    info = await pc.flush()
                    rinfo = await wait_for_height(rc, info.height)
                    assert rinfo.digest == info.digest
                    stats = await rc.stats()
                    assert stats["replication"]["applied_height"] == info.height
                    for n in (0, 59, 60, 99):
                        assert await rc.get(addr_of(n)) == value_of(n)

            asyncio.run(scenario())
        replica_engine.close()
    wal.close()
    engine.close()


def test_lagging_subscriber_below_floor_is_told_to_resnapshot(tmp_path):
    """Once cascades advance the engine checkpoints, heights at or below
    the floor may be truncated from the WAL — a from-scratch subscriber
    must be refused with a snapshot-required error, not silently fed a
    partial history."""
    tight = ColeParams(
        system=SystemParams(addr_size=ADDR, value_size=VALUE),
        mem_capacity=32,
        size_ratio=2,
        async_merge=False,
    )
    engine, wal, primary = primary_stack(tmp_path, params=tight)
    with primary:
        phost, pport = primary.start()

        async def scenario():
            async with ServerClient(phost, pport) as pc:
                for n in range(200):
                    await pc.put(addr_of(n), value_of(n))
                    if n % 20 == 19:
                        await pc.flush()
                await pc.flush()
            assert engine.checkpoint_blk > 0  # cascades landed
            reader, writer = await asyncio.open_connection(phost, pport)
            try:
                writer.write(protocol.encode_repl_subscribe(0))
                await writer.drain()
                body = await read_frame(reader)
                with pytest.raises(StorageError, match="snapshot"):
                    protocol.decode_repl_handshake(body)
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())
    wal.close()
    engine.close()


def test_subscribe_to_wal_less_server_is_an_error(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    with ServerThread(engine) as thread:
        host, port = thread.start()

        async def scenario():
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(protocol.encode_repl_subscribe(0))
                await writer.drain()
                body = await read_frame(reader)
                with pytest.raises(StorageError, match="WAL"):
                    protocol.decode_repl_handshake(body)
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(scenario())
    engine.close()


def test_stopping_a_primary_ends_a_stream_parked_on_its_queue(tmp_path):
    """A caught-up subscriber waits on the hub's queue, where no socket
    event reaches it: stopping the primary must still end its stream
    (closing the connection cancels the stream's task)."""
    directory = str(tmp_path / "primary")
    engine = Cole(directory, PARAMS)
    wal = WriteAheadLog(os.path.join(directory, "wal"))

    async def scenario():
        server = ColeServer(engine, config=ServerConfig(batch_max_puts=16), wal=wal)
        host, port = await server.start()
        stopped = False
        reader, writer = await asyncio.open_connection(host, port)
        try:
            async with ServerClient(host, port) as client:
                await client.put(addr_of(1), value_of(1))
                await client.flush()
                writer.write(protocol.encode_repl_subscribe(0))
                assert protocol.decode_repl_handshake(await read_frame(reader)) == 1
                # Height 1's PUTS and COMMIT: the catch-up is shipped, and
                # the server stepped on to the queue in the step that wrote it.
                for _ in range(2):
                    protocol.decode_repl_record(await read_frame(reader))
                assert (await client.stats())["replication"]["subscribers"] == 1
            await asyncio.wait_for(server.stop(), 5)
            stopped = True
            assert await asyncio.wait_for(read_frame(reader), 5) is None
        finally:
            writer.close()
            if not stopped:
                await server.stop()

    asyncio.run(scenario())
    wal.close()
    engine.close()


# =============================================================================
# primary failure: kill -9, recover, resume
# =============================================================================

def _spawn_primary(workspace, port=0):
    """Start ``repro serve --wal`` in a subprocess; returns (proc, port)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve", workspace,
            "--port", str(port), "--wal", "--mem-capacity", "512",
            "--batch-puts", "16", "--batch-delay-ms", "10",
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
        # exited and been waited for (left open, it leaks a file).
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
        raise AssertionError(f"primary never came up:\n{''.join(lines)}")
    return proc, port_holder["port"]


def test_replica_survives_primary_kill9_and_resumes(tmp_path):
    """SIGKILL the primary mid-replication; the replica keeps serving its
    applied state, reconnects once the primary recovers on the same
    workspace (same port), and converges to the identical root again."""
    workspace = str(tmp_path / "primary")
    proc, pport = _spawn_primary(workspace)
    phost = "127.0.0.1"
    # repro serve opens the default engine parameters — mirror them.
    replica_engine = Cole(
        str(tmp_path / "replica"),
        ColeParams(async_merge=True, mem_capacity=512),
    )

    def addr32(n):
        return n.to_bytes(4, "big") * 8

    def value40(n):
        return (n * 3 + 1).to_bytes(4, "big") * 10

    with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
        rhost, rport = rt.start()

        async def phase_one():
            async with ServerClient(phost, pport) as pc:
                for n in range(50):
                    await pc.put(addr32(n), value40(n))
                info = await pc.flush()
            async with ServerClient(rhost, rport) as rc:
                rinfo = await wait_for_height(rc, info.height)
                assert rinfo.digest == info.digest
            return info

        before = asyncio.run(phase_one())
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=15)

        async def while_down():
            # The replica rides out the outage: reads keep serving the
            # applied state, the applier reports the disconnect.
            async with ServerClient(rhost, rport) as rc:
                assert (await rc.root()).digest == before.digest
                assert await rc.get(addr32(3)) == value40(3)
                deadline = asyncio.get_running_loop().time() + 10.0
                while True:
                    stats = await rc.stats()
                    if not stats["replication"]["connected"]:
                        break
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("applier never noticed the kill")
                    await asyncio.sleep(0.05)

        asyncio.run(while_down())

        # Recover the primary on the same workspace and the same port —
        # the replica's retry loop reconnects on its own.  Recovery also
        # re-marks the replayed commits in the WAL, so the catch-up scan
        # can ship any height the replica missed around the kill.
        proc2, pport2 = _spawn_primary(workspace, port=pport)
        assert pport2 == pport
        try:
            async def phase_two():
                async with ServerClient(phost, pport2) as pc:
                    for n in range(50, 90):
                        await pc.put(addr32(n), value40(n))
                    info = await pc.flush()
                async with ServerClient(rhost, rport) as rc:
                    rinfo = await wait_for_height(rc, info.height, timeout_s=20.0)
                    assert rinfo.digest == info.digest
                    stats = await rc.stats()
                    assert stats["replication"]["connected"]
                    assert not stats["replication"]["diverged"]
                    assert stats["replication"]["subscribes"] >= 2
                    for n in (0, 49, 50, 89):
                        assert await rc.get(addr32(n)) == value40(n)

            asyncio.run(phase_two())
        finally:
            proc2.terminate()
            proc2.wait(timeout=15)
    replica_engine.close()
