#!/usr/bin/env python3
"""Read-scaling replication: a primary shipping its WAL to live replicas.

Walks the replication story end to end:

1. serve a COLE engine as a WAL-enabled primary;
2. attach two replicas that subscribe to the primary's record stream
   (one from scratch, one bootstrapped from a snapshot) and apply each
   group commit through their own engines;
3. verify the replication oracle — every replica's ``ROOT`` digest is
   byte-identical to the primary's at the same height (COLE's commit
   checkpoints are deterministic, so equal roots mean equal state);
4. read every key from each replica through its own ``connect()``
   client, and show a write sent to a replica refused with a
   ``NOT_PRIMARY`` referral that names the primary.

Run:  python examples/replicated_serving_demo.py
"""

import asyncio
import os
import shutil
import tempfile

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.server import (
    NotPrimaryError,
    ServerClient,
    ServerConfig,
    ServerThread,
    connect,
)
from repro.wal import WriteAheadLog, replay_wal, restore_store, snapshot_store

COLE = ColeParams(
    system=SystemParams(addr_size=32, value_size=40),
    mem_capacity=256,
    size_ratio=4,
    async_merge=True,
)
KEYS = 120


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 8


def value_of(n: int) -> bytes:
    return (n * 31 + 7).to_bytes(4, "big") * 10


async def wait_for_height(client: ServerClient, height: int):
    while True:
        info = await client.root()
        if info.height >= height:
            return info
        await asyncio.sleep(0.02)


def main() -> None:
    base = tempfile.mkdtemp(prefix="repro-replication-demo-")
    try:
        primary_engine = Cole(os.path.join(base, "primary"), COLE)
        wal = WriteAheadLog(os.path.join(base, "primary", "wal"))
        config = ServerConfig(batch_max_puts=32, batch_max_delay=0.005)
        with ServerThread(primary_engine, config=config, wal=wal) as primary:
            phost, pport = primary.start()
            print(f"primary serving on {phost}:{pport}")

            # --- first replica: from scratch, catches up over the wire.
            replica1 = Cole(os.path.join(base, "replica-1"), COLE)
            with ServerThread(replica1, replica_of=(phost, pport)) as rt1:
                r1 = rt1.start()
                print(f"replica-1 serving on {r1[0]}:{r1[1]} (empty bootstrap)")

                async def load_first_half():
                    async with connect((phost, pport)) as client:
                        for n in range(KEYS // 2):
                            await client.put(addr_of(n), value_of(n))
                        return await client.flush()

                info = asyncio.run(load_first_half())

                # --- second replica: bootstrapped from a snapshot.
                snapshot = os.path.join(base, "snap")
                snapshot_store(primary_engine, snapshot, wal=wal)
                replica2_ws = os.path.join(base, "replica-2")
                restore_store(snapshot, replica2_ws)
                replica2 = Cole(replica2_ws, COLE)
                boot_wal = WriteAheadLog(os.path.join(replica2_ws, "wal"))
                replay_wal(replica2, boot_wal)
                boot_wal.close()
                print(f"replica-2 restored from snapshot at height {info.height}")

                with ServerThread(replica2, replica_of=(phost, pport)) as rt2:
                    r2 = rt2.start()
                    print(f"replica-2 serving on {r2[0]}:{r2[1]}")

                    async def finish_and_verify():
                        async with connect((phost, pport)) as client:
                            for n in range(KEYS // 2, KEYS):
                                await client.put(addr_of(n), value_of(n))
                            info = await client.flush()
                        expected = [value_of(n) for n in range(KEYS)]
                        for name, replica in (("replica-1", r1), ("replica-2", r2)):
                            async with connect(replica) as reader:
                                rinfo = await wait_for_height(reader, info.height)
                                assert rinfo.digest == info.digest, name
                                print(
                                    f"{name}: height {rinfo.height}, root "
                                    f"{rinfo.digest.hex()[:16]}… byte-identical"
                                )
                                values = [
                                    await reader.get(addr_of(n)) for n in range(KEYS)
                                ]
                                assert values == expected, name
                                print(f"{name}: {KEYS} reads, all exact")
                        # A write sent to a replica is refused, naming the
                        # primary that accepts it.
                        async with connect(r1) as misdirected:
                            try:
                                await misdirected.put(addr_of(KEYS), value_of(KEYS))
                            except NotPrimaryError as exc:
                                assert exc.address == f"{phost}:{pport}"
                                print(
                                    "write to replica-1 refused: NOT_PRIMARY, "
                                    f"primary is {exc.address}"
                                )
                            else:
                                raise AssertionError("a replica accepted a write")

                    asyncio.run(finish_and_verify())
                replica2.close()
            replica1.close()
        wal.close()
        primary_engine.close()
        print("replication demo OK")
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
