#!/usr/bin/env python3
"""Durable serving: write-ahead log, crash recovery, snapshot/restore.

Walks the full durability story end to end:

1. serve a COLE* engine with a WAL attached — every PUT is
   acknowledged only after its record is fsynced (group commit: one
   fsync covers a whole wave of concurrent acks);
2. crash — the engine is abandoned without a clean shutdown, losing its
   entire in-memory level;
3. recover — a fresh engine replays the WAL tail and lands on the exact
   pre-crash state root, with every acked write readable;
4. snapshot the recovered store and restore it elsewhere, verifying the
   restored root digest byte-for-byte.

Run:  python examples/durable_server_demo.py
"""

import asyncio
import os
import shutil
import tempfile

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.server import ServerConfig, ServerThread, connect
from repro.wal import WriteAheadLog, replay_wal, restore_store, snapshot_store

COLE = ColeParams(
    system=SystemParams(addr_size=32, value_size=40),
    mem_capacity=256,
    size_ratio=4,
    async_merge=True,
)
CLIENTS = 8
PUTS_PER_CLIENT = 40


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 8


def value_of(n: int) -> bytes:
    return (n * 31 + 7).to_bytes(4, "big") * 10


async def drive(host: str, port: int) -> dict:
    async def worker(client_id: int) -> None:
        async with connect((host, port)) as client:
            for i in range(PUTS_PER_CLIENT):
                n = client_id * PUTS_PER_CLIENT + i
                await client.put(addr_of(n), value_of(n))

    await asyncio.gather(*[worker(cid) for cid in range(CLIENTS)])
    async with connect((host, port)) as control:
        return await control.stats()


def main() -> None:
    base = tempfile.mkdtemp(prefix="repro-durable-demo-")
    workspace = os.path.join(base, "ws")
    try:
        engine = Cole(workspace, COLE)
        wal = WriteAheadLog(os.path.join(workspace, "wal"), sync_policy="batch")
        config = ServerConfig(batch_max_puts=64, batch_max_delay=0.005)
        with ServerThread(engine, config=config, wal=wal) as thread:
            stats = asyncio.run(drive(*thread.start()))
        total_puts = CLIENTS * PUTS_PER_CLIENT
        wal_stats = stats["wal"]
        print(f"served {total_puts} durable puts from {CLIENTS} clients")
        print(
            f"group fsync: {wal_stats['syncs']} fsyncs for "
            f"{wal_stats['puts_appended']} acked puts "
            f"({wal_stats['puts_appended'] / max(1, wal_stats['syncs']):.1f} "
            "acks per fsync)"
        )
        live_root = engine.root_digest()
        print(f"live root:   {live_root.hex()}")

        # -- crash: abandon the engine; the in-memory level is gone -------
        engine.wait_for_merges()
        engine.scheduler.close()
        engine.workspace.close()
        wal.close()
        print("\ncrashed (engine abandoned, memory lost)")

        # -- recover: replay the WAL tail into a fresh engine -------------
        recovered = Cole(workspace, COLE)
        wal2 = WriteAheadLog(os.path.join(workspace, "wal"))
        replay = replay_wal(recovered, wal2)
        recovered_root = recovered.root_digest()
        print(
            f"recovered:   {replay.puts_replayed} puts in "
            f"{replay.blocks_replayed} blocks replayed from the WAL"
        )
        print(f"root:        {recovered_root.hex()}")
        assert recovered_root == live_root, "recovery must reproduce the root"
        for n in range(total_puts):
            assert recovered.get(addr_of(n)) == value_of(n)
        print("every acked write present, root byte-identical")

        # -- snapshot + restore -------------------------------------------
        snap = os.path.join(base, "snap")
        meta = snapshot_store(recovered, snap, wal=wal2)
        print(f"\nsnapshot:    {len(meta['files'])} files -> {snap}")
        restored_dir = os.path.join(base, "restored")
        restore_store(snap, restored_dir)
        restored = Cole(restored_dir, COLE)
        wal3 = WriteAheadLog(os.path.join(restored_dir, "wal"))
        replay_wal(restored, wal3)
        assert restored.root_digest().hex() == meta["root_digest"]
        print("restore verified: root digest matches the snapshot record")
        wal3.close()
        restored.close()
        wal2.close()
        recovered.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
