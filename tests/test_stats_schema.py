"""STATS payload schema across server roles.

The STATS blob is the operator- and tooling-facing contract: the
``repro query`` CLI, METRICS and dashboards all parse it.  These tests pin the schema per role — primary with and without a
WAL, replica, sharded vs single-engine — so a section silently
disappearing or changing type fails loudly here rather than in a
consumer.
"""

import asyncio
import os

from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.core import Cole
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.sharding import ShardedCole
from repro.wal import WriteAheadLog

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


async def loaded_stats(host, port, writes=24):
    """Drive a little of everything, then fetch STATS."""
    async with ServerClient(host, port) as client:
        for n in range(writes):
            await client.put(addr_of(n), value_of(n))
        await client.flush()
        await client.get(addr_of(0))
        await client.get(addr_of(0))       # read-cache hit
        await client.get(addr_of(10_000))  # negative
        await client.scan(addr_of(0), addr_of(writes), limit=5)
        await client.multi_get([addr_of(0), addr_of(1)])
        return await client.stats()


HIST_SUMMARY_KEYS = {"count", "sum", "avg", "min", "max", "p50", "p99"}


def assert_core_schema(stats: dict) -> None:
    """Sections every role serves, with types."""
    assert isinstance(stats["ops"], dict)
    for op in (
        "put", "get", "get_at", "prov", "root", "stats", "flush",
        "repl", "scan", "multi_get", "multi_put", "metrics",
    ):
        assert isinstance(stats["ops"][op], int), op
    assert isinstance(stats["connections_total"], int)
    assert isinstance(stats["version"], int)
    assert isinstance(stats["committed_height"], int)
    assert isinstance(stats["open_height"], int)
    assert isinstance(stats["buffered_puts"], int)
    assert isinstance(stats["overlay_hits"], int)

    for cache_key in ("cache", "negative_cache"):
        cache = stats[cache_key]
        for field in ("hits", "misses", "lookups", "entries", "capacity"):
            assert isinstance(cache[field], int), (cache_key, field)
        assert isinstance(cache["hit_rate"], float)
        assert cache["lookups"] == cache["hits"] + cache["misses"]
    assert isinstance(stats["cache"]["refreshed"], int)
    # Engine point reads by path: the fallback rate an operator watches.
    assert set(stats["reads"]) == {"inline", "pooled", "would_block"}
    for path, count in stats["reads"].items():
        assert isinstance(count, int), path
    assert stats["reads"]["inline"] > 0

    engine = stats["engine"]
    assert isinstance(engine["puts_total"], int)
    assert isinstance(engine["storage_bytes"], int)
    assert isinstance(engine["disk_levels"], int)
    assert isinstance(engine["shards"], int)
    assert isinstance(engine["workspace"], str) and engine["workspace"]

    compaction = engine["compaction"]
    assert compaction["policy"] in ("leveling", "tiering")
    assert isinstance(compaction["bytes_flushed"], int)
    assert isinstance(compaction["bytes_rewritten"], int)
    assert isinstance(compaction["write_amp"], (int, float))
    # STATS travels as JSON, so level keys arrive as strings.
    assert isinstance(compaction["levels"], dict)
    for row in compaction["levels"].values():
        assert set(row) >= {"runs", "entries", "bytes", "bytes_rewritten"}

    latency = stats["latency"]
    assert isinstance(latency["op"], dict)
    assert isinstance(latency["merge"], dict)
    for summary in latency["op"].values():
        assert set(summary) == HIST_SUMMARY_KEYS

    io = stats["io"]
    assert isinstance(io["page_reads"], int)
    assert isinstance(io["page_writes"], int)
    assert isinstance(io["page_cache"], dict)


def assert_primary_schema(stats: dict) -> None:
    batcher = stats["batcher"]
    for field in (
        "commits", "batched_puts", "size_flushes", "timer_flushes",
        "forced_flushes", "multi_put_batches",
    ):
        assert isinstance(batcher[field], int), field
    assert isinstance(batcher["avg_batch"], float)
    # A loaded primary has recorded per-op service latency.
    ops_seen = stats["latency"]["op"]
    for op in ("put", "get", "scan", "multi_get"):
        assert ops_seen[op]["count"] > 0, op
    assert stats["latency"]["commit_flush"]["count"] > 0
    assert stats["latency"]["commit_batch_size"]["count"] > 0


# =============================================================================
# roles
# =============================================================================

def test_stats_schema_primary_without_wal(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    with ServerThread(engine, config=ServerConfig(batch_max_puts=8)) as thread:
        # Enough writes to put runs on disk, so the reads touch pages.
        stats = asyncio.run(loaded_stats(*thread.start(), writes=128))
    engine.close()
    assert_core_schema(stats)
    assert_primary_schema(stats)
    # Liveness: a counter unplugged from its source reads 0 here.
    assert stats["batcher"]["commits"] > 0
    assert stats["io"]["page_reads"] > 0
    assert stats["cache"]["lookups"] > 0
    assert "wal" not in stats
    assert "replication" not in stats
    assert stats["engine"]["shards"] == 1
    assert "wal_fsync" not in stats["latency"]


def test_stats_schema_primary_with_wal(tmp_path):
    directory = str(tmp_path / "ws")
    engine = Cole(directory, PARAMS)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    with ServerThread(
        engine, config=ServerConfig(batch_max_puts=8), wal=wal
    ) as thread:
        stats = asyncio.run(loaded_stats(*thread.start()))
    engine.close()
    assert_core_schema(stats)
    assert_primary_schema(stats)
    wal_stats = stats["wal"]
    assert isinstance(wal_stats["directory"], str) and wal_stats["directory"]
    for field in (
        "records_appended", "bytes_appended", "syncs",
        "syncs_inline", "syncs_pooled",
    ):
        assert isinstance(wal_stats[field], int), field
    assert wal_stats["records_appended"] > 0
    # Every sync the server issued went through the syncer, on one path
    # or the other.
    assert wal_stats["syncs_inline"] + wal_stats["syncs_pooled"] == wal_stats["syncs"]
    # Durable acks mean fsync latency was recorded.
    assert stats["latency"]["wal_fsync"]["count"] > 0
    # A WAL'd standalone primary still reports replication (hub side).
    assert stats["replication"]["role"] == "primary"


def test_stats_schema_sharded(tmp_path):
    engine = ShardedCole(
        str(tmp_path / "ws"), ShardParams(cole=PARAMS, num_shards=2)
    )
    with ServerThread(engine, config=ServerConfig(batch_max_puts=8)) as thread:
        stats = asyncio.run(loaded_stats(*thread.start()))
    engine.close()
    assert_core_schema(stats)
    assert_primary_schema(stats)
    assert stats["engine"]["shards"] == 2


def test_stats_schema_replica(tmp_path):
    primary_dir = str(tmp_path / "primary")
    primary_engine = Cole(primary_dir, PARAMS)
    wal = WriteAheadLog(os.path.join(primary_dir, "wal"))
    replica_engine = Cole(str(tmp_path / "replica"), PARAMS)
    with ServerThread(
        primary_engine,
        config=ServerConfig(batch_max_puts=8, batch_max_delay=0.01),
        wal=wal,
    ) as primary:
        phost, pport = primary.start()
        with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
            rhost, rport = rt.start()

            async def scenario():
                async with ServerClient(phost, pport) as pc, \
                        ServerClient(rhost, rport) as rc:
                    for n in range(16):
                        await pc.put(addr_of(n), value_of(n))
                    info = await pc.flush()
                    deadline = asyncio.get_running_loop().time() + 10.0
                    while True:
                        rinfo = await rc.root()
                        if rinfo.height >= info.height:
                            break
                        assert (
                            asyncio.get_running_loop().time() < deadline
                        ), "replica never caught up"
                        await asyncio.sleep(0.02)
                    await rc.get(addr_of(0))
                    return await rc.stats()

            stats = asyncio.run(scenario())
    primary_engine.close()
    replica_engine.close()
    assert_core_schema(stats)
    # No batcher on a replica — committed == open height.
    assert "batcher" not in stats
    assert stats["open_height"] == stats["committed_height"]
    replication = stats["replication"]
    assert replication["role"] == "replica"
    assert isinstance(replication["connected"], bool)
    assert replication["diverged"] is False
    for field in (
        "applied_height", "primary_height", "lag_blocks",
        "stream_offset", "batches_applied", "subscribes",
    ):
        assert isinstance(replication[field], int), field
    assert replication["batches_applied"] > 0
    # Applying streamed batches recorded apply latency.
    assert stats["latency"]["replica_apply"]["count"] > 0
