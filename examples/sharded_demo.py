#!/usr/bin/env python3
"""Sharded COLE: hash-partitioned scale-out with a composite state root.

Runs the same transaction stream against a single COLE* instance and a
4-shard :class:`~repro.sharding.ShardedCole`, then demonstrates the three
properties the sharding layer guarantees:

1. every read answers identically to the single-node engine;
2. the composite ``Hstate`` is deterministic — two sharded nodes fed the
   same blocks agree byte-for-byte;
3. provenance proofs verify against the composite root alone
   (:func:`~repro.sharding.verify_sharded_provenance`) and disclose the
   single engine's versions;
4. a full-range scan — one merged cursor over every shard — returns the
   single engine's scan.

Exits 1 when any check disagrees, so CI gates on it.

Run:  python examples/sharded_demo.py
"""

import random
import shutil
import sys
import tempfile
import time

from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.core import Cole
from repro.sharding import ShardedCole, verify_sharded_provenance

BLOCKS = 300
PUTS_PER_BLOCK = 32
ADDR_SIZE = 20

PARAMS = ColeParams(
    system=SystemParams(addr_size=ADDR_SIZE, value_size=32),
    mem_capacity=128,
    size_ratio=3,
    async_merge=True,
)


def stream():
    """The deterministic put stream both engines consume."""
    rng = random.Random(11)
    pool = [rng.randbytes(ADDR_SIZE) for _ in range(512)]
    for blk in range(1, BLOCKS + 1):
        yield blk, [(rng.choice(pool), rng.randbytes(32)) for _ in range(PUTS_PER_BLOCK)]


def run(engine):
    started = time.perf_counter()
    root = None
    for blk, batch in stream():
        engine.begin_block(blk)
        engine.put_many(batch)
        root = engine.commit_block()
    return root, time.perf_counter() - started


def main() -> int:
    single_dir = tempfile.mkdtemp(prefix="cole-single-")
    shard_dir_a = tempfile.mkdtemp(prefix="cole-shards-a-")
    shard_dir_b = tempfile.mkdtemp(prefix="cole-shards-b-")
    single = Cole(single_dir, PARAMS)
    node_a = ShardedCole(shard_dir_a, ShardParams(cole=PARAMS, num_shards=4))
    node_b = ShardedCole(shard_dir_b, ShardParams(cole=PARAMS, num_shards=4))

    print(f"workload: {BLOCKS} blocks x {PUTS_PER_BLOCK} puts\n")
    _root_single, t_single = run(single)
    root_a, t_a = run(node_a)
    root_b, _t_b = run(node_b)
    print(f"single COLE*:   {t_single:6.2f}s")
    print(f"4-shard node A: {t_a:6.2f}s  (composite Hstate {root_a.hex()[:16]}...)")

    checks = {}
    # 1. reads agree with the single-node engine
    addrs = {addr for _blk, batch in stream() for addr, _v in batch}
    checks["reads agree with single-node engine"] = all(
        node_a.get(addr) == single.get(addr) for addr in addrs
    )

    # 2. two sharded nodes agree on the composite root
    checks["two sharded nodes agree on Hstate"] = root_a == root_b

    # 3. provenance proofs verify against the composite root (raises on
    #    a bad proof) and disclose what the single engine holds
    addr = sorted(addrs)[0]
    result = node_a.prov_query(addr, BLOCKS // 2, BLOCKS)
    versions = verify_sharded_provenance(result, root_a, addr_size=ADDR_SIZE)
    checks[f"provenance proof verifies ({len(versions)} versions)"] = (
        versions == single.prov_query(addr, BLOCKS // 2, BLOCKS).versions
    )

    # 4. a full-range scan merges every shard into the single engine's order
    low, high = b"\x00" * ADDR_SIZE, b"\xff" * ADDR_SIZE
    scanned = node_a.scan(low, high)
    checks[f"full-range scan agrees ({len(scanned)} addresses)"] = (
        scanned == single.scan(low, high)
    )

    for label, agree in checks.items():
        print(f"{label + ':':<42} {agree}")

    for engine, directory in (
        (single, single_dir), (node_a, shard_dir_a), (node_b, shard_dir_b)
    ):
        engine.close()
        shutil.rmtree(directory)
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
