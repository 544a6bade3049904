#!/usr/bin/env python3
"""Key-ordered range scans end-to-end: engine cursors, the wire
protocol's continuation paging, and the YCSB-E workload.

Stands up a COLE* engine behind a :class:`ColeServer` and demonstrates
the cursor subsystem:

1. range scans — the live version of every address in a range, in key
   order across every level of the engine, byte-checked against a local
   model of the writes;
2. continuation paging — one logical scan streamed in small result
   pages, each resuming at the server's continuation key;
3. time travel — ``at_blk`` scans return the historical state of the
   whole range as of an older block;
4. workload E — a scan-heavy YCSB mix (95% scans / 5% writes) driven
   through the load generator with per-kind latency reporting.

Run:  python examples/scan_demo.py
"""

import asyncio
import shutil
import tempfile

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.obs.query import format_output
from repro.server import (
    LoadgenParams,
    ServerConfig,
    ServerThread,
    connect,
    run_loadgen,
)

ADDR = 32
VALUE = 40
COLE = ColeParams(
    system=SystemParams(addr_size=ADDR, value_size=VALUE),
    mem_capacity=256,
    size_ratio=4,
    async_merge=True,
)


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * (ADDR // 4)


def value_of(n: int, version: int) -> bytes:
    return (n.to_bytes(4, "big") + version.to_bytes(4, "big")) * (VALUE // 8)


async def main() -> None:
    directory = tempfile.mkdtemp(prefix="repro-scan-demo-")
    engine = Cole(directory, COLE)
    thread = ServerThread(
        engine, config=ServerConfig(batch_max_puts=128, batch_max_delay=0.004)
    )
    try:
        host, port = thread.start()
        print(f"serving on {host}:{port}\n")

        async with connect((host, port)) as client:
            # -- load two versions of 300 ordered keys --------------------
            for n in range(300):
                await client.put(addr_of(n), value_of(n, 1))
            v1 = (await client.flush()).height
            for n in range(300):
                await client.put(addr_of(n), value_of(n, 2))
            await client.flush()

            # -- one logical scan, paged by continuation keys -------------
            rows = await client.scan(addr_of(50), addr_of(99), page_size=16)
            assert [r[0] for r in rows] == [addr_of(n) for n in range(50, 100)]
            assert all(r[2] == value_of(50 + i, 2) for i, r in enumerate(rows))
            print(
                f"scan [50..99]: {len(rows)} keys in key order, paged 16 at "
                f"a time — all latest versions correct"
            )

            # -- time travel: the same range as of the first commit -------
            old = await client.scan(addr_of(50), addr_of(99), at_blk=v1)
            assert all(r[2] == value_of(50 + i, 1) for i, r in enumerate(old))
            print(f"scan at_blk={v1}: same 50 keys, all version-1 values\n")

        # -- YCSB workload E: scan-heavy mix through the load generator ---
        params = LoadgenParams(
            read_fraction=0.0,
            scan_fraction=0.95,
            clients=8,
            ops_per_client=60,
            num_keys=512,
            scan_length=24,
            addr_size=ADDR,
            value_size=VALUE,
            seed=11,
        )
        report = await run_loadgen(lambda: connect((host, port)), params)
        print("YCSB workload E (95% scans):")
        rows = report.rows()
        print(format_output(list(rows[-1]), rows, "table"))
        assert report.errors == 0
        assert len(report.latency["scan"]) > len(report.latency["put"])
    finally:
        thread.stop()
        engine.close()
        shutil.rmtree(directory, ignore_errors=True)
    print("\nscan demo OK")


if __name__ == "__main__":
    asyncio.run(main())
