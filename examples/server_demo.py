#!/usr/bin/env python3
"""The serving layer: COLE behind a concurrent TCP front end.

Stands up a sharded COLE* engine behind a :class:`ColeServer`, drives it
with 16 concurrent YCSB-style clients over real sockets, and then
demonstrates the three properties the serving layer guarantees:

1. group commit — many clients' puts coalesce into few blocks (watch
   the average batch size in the stats);
2. exact caching — the versioned read cache answers hot reads without
   ever serving a stale value (every served value is re-checked against
   a direct in-process engine fed the same writes);
3. remote verifiability — a provenance proof fetched over the wire
   verifies against the composite state root the server anchors it to.

Run:  python examples/server_demo.py
"""

import asyncio
import shutil
import tempfile

from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.server import (
    LoadgenParams,
    ServerConfig,
    ServerThread,
    connect,
    format_report,
    replay_writes,
    run_loadgen,
)
from repro.server.loadgen import key_addr
from repro.sharding import ShardedCole, verify_sharded_provenance

COLE = ColeParams(
    system=SystemParams(addr_size=32, value_size=40),
    mem_capacity=256,
    size_ratio=4,
    async_merge=True,
)
PARAMS = LoadgenParams(
    clients=16, ops_per_client=100, num_keys=512, read_fraction=0.5, seed=11
)


async def main() -> None:
    served_dir = tempfile.mkdtemp(prefix="repro-server-demo-")
    direct_dir = tempfile.mkdtemp(prefix="repro-server-direct-")
    engine = ShardedCole(served_dir, ShardParams(cole=COLE, num_shards=2))
    config = ServerConfig(batch_max_puts=128, batch_max_delay=0.004)
    thread = ServerThread(engine, config=config)
    try:
        host, port = thread.start()
        print(f"serving 2 shards on {host}:{port}\n")

        # -- 16 concurrent clients, mixed read/write zipfian traffic ------
        report = await run_loadgen(host, port, PARAMS)
        print(format_report(report))

        # -- byte-identical with the in-process engine --------------------
        direct = ShardedCole(direct_dir, ShardParams(cole=COLE, num_shards=2))
        replay_writes(direct, PARAMS)
        async with connect((host, port)) as client:
            mismatches = 0
            for rank in range(PARAMS.num_keys):
                addr = key_addr(rank, PARAMS.addr_size)
                if await client.get(addr) != direct.get(addr):
                    mismatches += 1
            print(f"\nserved vs direct engine: {mismatches} mismatches "
                  f"across {PARAMS.num_keys} keys")
            assert mismatches == 0

            # -- provenance over the wire, verified locally ---------------
            info = await client.root()
            addr = key_addr(0, PARAMS.addr_size)
            result, root = await client.prov(addr, 0, info.height)
            assert root == info.digest
            verify_sharded_provenance(
                result, root, addr_size=PARAMS.addr_size
            )
            print(f"provenance proof for the hottest key: "
                  f"{len(result.result.versions)} versions, verified against "
                  f"Hstate {root.hex()[:16]}…")
        direct.close()
    finally:
        thread.stop()
        engine.close()
        shutil.rmtree(served_dir, ignore_errors=True)
        shutil.rmtree(direct_dir, ignore_errors=True)
    print("\nOK: group commit, exact caching, and remote verification hold.")


if __name__ == "__main__":
    asyncio.run(main())
