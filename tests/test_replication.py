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
import os
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.core import Cole
from repro.server import (
    NotPrimaryError,
    ReplicatedClient,
    ServerClient,
    ServerConfig,
    ServerThread,
    protocol,
)
from repro.sharding import ShardedCole
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


def test_sharded_replica_matches_primary_root(tmp_path):
    params = ShardParams(cole=PARAMS, num_shards=3)
    directory = str(tmp_path / "primary")
    engine = ShardedCole(directory, params)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    replica_engine = ShardedCole(str(tmp_path / "replica"), params)
    config = ServerConfig(batch_max_puts=16, batch_max_delay=0.01)
    with ServerThread(engine, config=config, wal=wal) as primary:
        phost, pport = primary.start()
        with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
            rhost, rport = rt.start()

            async def scenario():
                async with ServerClient(phost, pport) as pc, \
                        ServerClient(rhost, rport) as rc:
                    for n in range(90):
                        await pc.put(addr_of(n), value_of(n))
                    info = await pc.flush()
                    rinfo = await wait_for_height(rc, info.height)
                    assert rinfo.digest == info.digest
                    for n in range(0, 90, 17):
                        assert await rc.get(addr_of(n)) == value_of(n)

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
                    assert put_exc.value.primary == f"{phost}:{pport}"
                    with pytest.raises(NotPrimaryError):
                        await rc.flush()
                # A ReplicatedClient pointed at the replica as "primary"
                # follows the referral and lands the write.
                async with ReplicatedClient((rhost, rport)) as client:
                    height = await client.put(addr_of(2), value_of(2))
                    assert height >= 1
                    assert client.redirects == 1

            asyncio.run(scenario())
    wal.close()
    engine.close()
    replica_engine.close()


def test_replicated_client_fans_reads_and_falls_back(tmp_path):
    engine, wal, primary = primary_stack(tmp_path)
    replica_engine = Cole(str(tmp_path / "replica"), PARAMS)
    with primary:
        phost, pport = primary.start()
        with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
            rhost, rport = rt.start()

            async def scenario():
                async with ServerClient(phost, pport) as pc:
                    for n in range(40):
                        await pc.put(addr_of(n), value_of(n))
                    info = await pc.flush()
                async with ServerClient(rhost, rport) as rc:
                    await wait_for_height(rc, info.height)
                async with ReplicatedClient(
                    (phost, pport), [(rhost, rport)], max_lag=1
                ) as client:
                    lags = await client.refresh_lag()
                    assert lags == [0]
                    for n in range(40):
                        assert await client.get(addr_of(n)) == value_of(n)
                    # Replica reads really happened (round-robin hit both).
                    rstats = await client.replicas[0].stats()
                    assert rstats["ops"]["get"] > 0
                    # Kill the replica: reads must fall back to the primary.
                    await client.replicas[0].close()
                    for n in range(10):
                        assert await client.get(addr_of(n)) == value_of(n)
                    assert client.read_fallbacks > 0

            asyncio.run(scenario())
    wal.close()
    engine.close()
    replica_engine.close()


def test_replicated_client_paged_scan_stays_on_one_node(tmp_path):
    """Every page of one paged scan comes from the node its first page
    chose (pages are pinned to that node's committed height)."""
    engine, wal, primary = primary_stack(tmp_path)
    replica_engines = [Cole(str(tmp_path / f"replica{i}"), PARAMS) for i in (0, 1)]
    with primary:
        phost, pport = primary.start()
        with ServerThread(replica_engines[0], replica_of=(phost, pport)) as r0, \
                ServerThread(replica_engines[1], replica_of=(phost, pport)) as r1:
            replicas = [r0.start(), r1.start()]

            async def scenario():
                async with ServerClient(phost, pport) as pc:
                    for n in range(40):
                        await pc.put(addr_of(n), value_of(n))
                    info = await pc.flush()
                    expected = await pc.scan(addr_of(0), addr_of(39))
                assert len(expected) == 40
                for address in replicas:
                    async with ServerClient(*address) as rc:
                        await wait_for_height(rc, info.height)
                async with ReplicatedClient(
                    (phost, pport), replicas, read_primary=False
                ) as client:
                    pages = []
                    for _ in replicas:
                        assert await client.scan(
                            addr_of(0), addr_of(39), page_size=4
                        ) == expected
                        pages.append([
                            (await replica.stats())["ops"]["scan"]
                            for replica in client.replicas
                        ])
                # Ten pages each: all of the first scan on one replica,
                # all of the second on the other.
                assert pages == [[10, 0], [10, 10]]

            asyncio.run(scenario())
    wal.close()
    engine.close()
    for replica_engine in replica_engines:
        replica_engine.close()


def test_replica_divergence_is_a_crash_stop(tmp_path):
    """A COLE* replica of a COLE primary diverges on the first block (the
    two modes' roots differ at every block): the applier freezes for
    good, ROOT and STATS keep naming the last verified commit, and reads
    are still answered."""
    engine, wal, primary = primary_stack(tmp_path, params=PARAMS.with_async(False))
    replica_engine = Cole(str(tmp_path / "replica"), PARAMS)
    verified = replica_engine.root_digest()
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
            assert rt.server._replica_task.done()
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
