"""Reduced-scale smoke benchmarks feeding the CI regression gate.

Runs the sharding, service, durability, scan (fig20 smoke path),
replication, hot-path (MULTI_GET / negative-lookup / scan-vs-hotset),
and compaction/incremental-snapshot (fig22 smoke path) experiments at a
scale sized for a CI minute, prints their
series, and writes one JSON file that ``check_regression.py`` compares
against ``baselines/smoke.json`` (the replication section is asserted
for root equality here rather than throughput-gated — process spawn
timing is too noisy for a floor).

Usage::

    PYTHONPATH=src python benchmarks/smoke_bench.py [out.json]
"""

from __future__ import annotations

import json
import sys
from functools import partial

from repro.bench.experiments import (
    run_compaction_policies,
    run_durability,
    run_multi_get,
    run_negative_lookup,
    run_read_scaling,
    run_scan_throughput,
    run_scan_vs_hotset,
    run_service_throughput,
    run_sharding_scalability,
)
from repro.bench.report import format_table


def collect_counters() -> dict:
    """Core observability counters from a short served run.

    A served load of this size must register commits, page reads, and
    cache lookups in STATS; ``check_regression.py`` asserts they are
    non-zero, so dead instrumentation (a counter that silently stopped
    counting) turns CI red even when throughput looks fine.
    """
    import asyncio
    import hashlib
    import tempfile

    from repro.common.params import ColeParams
    from repro.core import Cole
    from repro.server import ServerConfig, ServerThread, connect

    def addr_of(n: int) -> bytes:
        return hashlib.sha256(f"counter-{n}".encode()).digest()

    async def scenario(host, port):
        async with connect((host, port)) as client:
            for n in range(128):
                await client.put(addr_of(n), f"v{n}".encode().ljust(40, b".")[:40])
            await client.flush()
            for n in range(32):
                await client.get(addr_of(n))
                await client.get(addr_of(n))
            return await client.stats()

    with tempfile.TemporaryDirectory(prefix="smoke-counters-") as root:
        engine = Cole(f"{root}/ws", ColeParams(mem_capacity=64, async_merge=True))
        try:
            with ServerThread(
                engine, config=ServerConfig(batch_max_puts=32, batch_max_delay=0.005)
            ) as thread:
                stats = asyncio.run(scenario(*thread.start()))
        finally:
            engine.close()
    return {
        "commits": stats["batcher"]["commits"],
        "page_reads": stats["io"]["page_reads"],
        "cache_lookups": stats["cache"]["lookups"],
    }


#: fig22 at smoke scale (also what tests/test_experiments.py pins).
compaction_cells = partial(
    run_compaction_policies, size_ratios=(4,), blocks=60, puts_per_block=16, reads=40
)


def collect_compaction() -> list:
    """Leveling/tiering rewritten-byte ratio under the fig22 stream.

    A design-invariant ratio, a deterministic function of fixed seeds
    rather than hardware speed: under the shard-skewed stream tiering
    must rewrite strictly less than leveling.
    """
    cells = {row["policy"]: row for row in compaction_cells()}
    if any(row["content_mismatches"] for row in cells.values()):
        raise SystemExit("compaction smoke served wrong content")
    return [
        {
            "config": "rewrite_ratio",
            "ratio": cells["leveling"]["bytes_rewritten"]
            / max(1, cells["tiering"]["bytes_rewritten"]),
            "leveling_bytes": cells["leveling"]["bytes_rewritten"],
            "tiering_bytes": cells["tiering"]["bytes_rewritten"],
        }
    ]


def collect_incremental_snapshot() -> list:
    """Full/incremental snapshot copied-byte ratio on a settled store.

    Deterministic like :func:`collect_compaction`: an incremental
    snapshot of a small delta must copy a small fraction of the full one.
    """
    import hashlib
    import os
    import tempfile

    from repro.common.params import ColeParams
    from repro.core import Cole
    from repro.wal import snapshot_store

    def copied_bytes(meta: dict) -> int:
        return sum(entry["size"] for entry in meta["files"].values())

    with tempfile.TemporaryDirectory(prefix="smoke-incsnap-") as root:
        params = ColeParams(mem_capacity=64, async_merge=False)
        engine = Cole(os.path.join(root, "ws"), params)
        try:
            addr_size = params.system.addr_size
            value_size = params.system.value_size
            blk = 0

            def load(blocks: int) -> None:
                nonlocal blk
                for _ in range(blocks):
                    blk += 1
                    writes = {
                        hashlib.sha256(
                            f"snap-{(blk * 7 + n) % 96}".encode()
                        ).digest()[:addr_size]: f"v{blk}.{n}".encode().ljust(
                            value_size, b"."
                        )[:value_size]
                        for n in range(13)
                    }
                    engine.begin_block(blk)
                    engine.put_many(sorted(writes.items()))
                    engine.commit_block()

            load(34)  # settled base: runs survive the next small delta
            full_meta = snapshot_store(engine, os.path.join(root, "full"))
            load(2)
            inc_meta = snapshot_store(
                engine,
                os.path.join(root, "inc"),
                parent=os.path.join(root, "full"),
            )
        finally:
            engine.close()
    return [
        {
            "config": "bytes_ratio",
            "ratio": copied_bytes(full_meta) / max(1, copied_bytes(inc_meta)),
            "full_bytes": copied_bytes(full_meta),
            "incremental_bytes": copied_bytes(inc_meta),
            "reused_files": len(inc_meta["reused"]),
        }
    ]


#: Every gated section, in output order: (JSON key, rows producer).
SECTIONS = (
    ("sharding", partial(
        run_sharding_scalability, shard_counts=(1, 2), blocks=40, repeats=1)),
    ("service", partial(
        run_service_throughput, client_counts=(1, 8), ops_per_client=100, num_keys=512)),
    ("durability", partial(
        run_durability, policies=("off", "batch"), clients=8, ops_per_client=100,
        num_keys=512)),
    # fig20 smoke: single-engine range scans, gated on scans/s; the
    # driver verifies every configuration against a brute-force model
    # (latest and at_blk) before timing anything.
    ("scan", partial(
        run_scan_throughput, shard_counts=(1,), scan_lengths=(8, 64),
        num_addresses=1024, blocks=48, puts_per_block=128, scans_per_point=120)),
    # fig19 smoke: 1 primary + 1 replica; the driver raises unless the
    # replica's root is byte-identical to the primary's at every wave.
    ("replication", partial(
        run_read_scaling, replica_counts=(0, 1), readers_per_node=4,
        reads_per_reader=100, num_keys=256, load_waves=2)),
    # Hot-path smoke: MULTI_GET amortization, negative-lookup caching,
    # and scan resistance — gated on *ratio* floors (speedup / hit
    # ratio), which hardware variance cannot flake the way absolute
    # throughput can.
    ("multi_get", partial(
        run_multi_get, batch_sizes=(1, 16), clients=4, ops_per_client=60,
        num_keys=1024, blocks=16)),
    ("negative_lookup", partial(
        run_negative_lookup, absent_keys=48, passes=20, num_keys=512)),
    ("scan_vs_hotset", partial(run_scan_vs_hotset, num_keys=512, blocks=24)),
    # Compaction-policy and incremental-snapshot ratios: design
    # invariants gated with fixed floors, immune to runner speed.
    ("compaction", collect_compaction),
    ("incremental_snapshot", collect_incremental_snapshot),
)


def main(argv) -> int:
    out_path = argv[1] if len(argv) > 1 else "smoke-bench.json"
    results = {name: collect() for name, collect in SECTIONS}
    if not results["replication"][-1]["roots_checked"]:
        raise SystemExit("replication smoke verified no replica roots")
    counters = collect_counters()
    print("\n-- counters --")
    print(format_table(list(counters), [[counters[k] for k in counters]]))
    for name, rows in results.items():
        print(f"\n-- {name} --")
        print(
            format_table(
                list(rows[0]), [[row.get(k, "") for k in rows[0]] for row in rows]
            )
        )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({**results, "counters": counters}, handle, indent=2)
    print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
