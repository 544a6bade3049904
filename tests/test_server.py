"""Tests for the serving layer: protocol, cache, batcher, server, client.

The end-to-end tests drive a real :class:`ColeServer` over real TCP
sockets; ``asyncio.run`` hosts each scenario since the suite has no
async plugin.
"""

import asyncio
import socket
import threading

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, verify_provenance
from repro.server import (
    LoadgenParams,
    ServerClient,
    ServerConfig,
    ServerThread,
    VersionedReadCache,
    client_ops,
    connect,
    run_loadgen,
)
from repro.server import protocol
from repro.server.loadgen import key_addr
from repro.server.protocol import Op, RootInfo
from repro.wal import WriteAheadLog

from raw_frames import read_frame

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


# =============================================================================
# protocol framing
# =============================================================================

def test_protocol_request_round_trips():
    cases = [
        (protocol.encode_put(b"a" * ADDR, b"v" * VALUE), Op.PUT,
         (b"a" * ADDR, b"v" * VALUE)),
        (protocol.encode_get(b"a" * ADDR), Op.GET, (b"a" * ADDR,)),
        (protocol.encode_get_at(b"a" * ADDR, 7), Op.GET_AT, (b"a" * ADDR, 7)),
        (protocol.encode_prov(b"a" * ADDR, 2, 9), Op.PROV, (b"a" * ADDR, 2, 9)),
        (protocol.encode_scan(b"a" * ADDR, b"z" * ADDR, 12, 64), Op.SCAN,
         (b"a" * ADDR, b"z" * ADDR, 12, 64)),
        (protocol.encode_scan(b"a" * ADDR, b"z" * ADDR, None, 0), Op.SCAN,
         (b"a" * ADDR, b"z" * ADDR, protocol.LATEST_BLK, 0)),
        (protocol.encode_simple(Op.ROOT), Op.ROOT, ()),
        (protocol.encode_simple(Op.STATS), Op.STATS, ()),
        (protocol.encode_simple(Op.FLUSH), Op.FLUSH, ()),
    ]
    for frame, want_op, want_args in cases:
        body = frame[4:]  # strip the length prefix
        assert len(frame) - 4 == int.from_bytes(frame[:4], "big")
        op, args = protocol.decode_request(body)
        assert (op, args) == (want_op, want_args)


def test_protocol_response_round_trips():
    assert protocol.decode_value_response(
        protocol.encode_value_response(b"xyz")[4:]
    ) == b"xyz"
    assert protocol.decode_value_response(protocol.encode_not_found()[4:]) is None
    assert protocol.decode_height_response(
        protocol.encode_height_response(41)[4:]
    ) == 41
    info = RootInfo(digest=b"d" * 32, version=5, height=12)
    assert protocol.decode_root_response(
        protocol.encode_root_response(info)[4:]
    ) == info
    with pytest.raises(StorageError, match="boom"):
        protocol.decode_value_response(protocol.encode_error("boom")[4:])


def test_protocol_scan_response_round_trips():
    rows = [(addr_of(n), n + 1, value_of(n)) for n in range(5)]
    for continuation in (None, addr_of(9)):
        body = protocol.encode_scan_response(rows, continuation, 42)[4:]
        assert protocol.decode_scan_response(body) == (rows, continuation, 42)
    assert protocol.decode_scan_response(
        protocol.encode_scan_response([], None, 0)[4:]
    ) == ([], None, 0)


def test_protocol_rejects_garbage():
    with pytest.raises(StorageError):
        protocol.decode_request(bytes([99]))
    with pytest.raises(StorageError):
        protocol.decode_request(protocol.encode_put(b"a" * ADDR, b"v")[4:-1])


# =============================================================================
# exact read cache
# =============================================================================

def test_cache_commit_refreshes_written_entries_and_keeps_the_rest():
    cache = VersionedReadCache(capacity=8)
    cache.put(b"k", 1, b"v1")
    cache.put(b"other", 1, b"o1")
    assert cache.get(b"k") == (True, b"v1")
    # A commit that wrote k refreshes its entry in place; an entry the
    # commit did not write keeps answering.
    cache.advance(2, [(b"k", b"v2")])
    assert cache.get(b"k") == (True, b"v2")
    assert cache.get(b"other") == (True, b"o1")
    assert cache.stats()["refreshed"] == 1


def test_cache_commit_does_not_insert_cold_written_keys():
    """Update-if-present: uniform writes must not evict the hot set."""
    cache = VersionedReadCache(capacity=2)
    cache.put(b"hot", 1, b"h")
    cache.advance(2, [(b"cold-%d" % n, b"c") for n in range(8)])
    assert len(cache) == 1
    assert cache.get(b"hot") == (True, b"h")
    assert cache.stats()["refreshed"] == 0


def test_cache_refresh_keeps_lru_position():
    cache = VersionedReadCache(capacity=2)
    cache.put(b"a", 1, b"1")
    cache.put(b"b", 1, b"2")
    cache.advance(2, [(b"a", b"1'")])  # a write is not a read: a stays coldest
    cache.put(b"c", 2, b"3")  # evicts a
    assert cache.get(b"a") == (False, None)
    assert cache.get(b"b") == (True, b"2")


def test_cache_stores_negative_answers():
    cache = VersionedReadCache(capacity=8)
    cache.put(b"k", 3, None)
    assert cache.get(b"k") == (True, None)
    assert cache.hits == 1


def test_cache_lru_eviction():
    cache = VersionedReadCache(capacity=2)
    cache.put(b"a", 1, b"1")
    cache.put(b"b", 1, b"2")
    cache.get(b"a")  # refresh a
    cache.put(b"c", 1, b"3")  # evicts b
    assert cache.get(b"b") == (False, None)
    assert cache.get(b"a") == (True, b"1")
    assert cache.get(b"c") == (True, b"3")


def test_cache_hit_rate():
    cache = VersionedReadCache(capacity=8)
    assert cache.hit_rate == 0.0
    cache.put(b"k", 1, b"v")
    cache.get(b"k")
    cache.get(b"x")
    assert cache.hit_rate == 0.5


def test_cache_drops_puts_stamped_behind_the_epoch():
    """A fill that raced a commit is dead on arrival: it can never hit,
    so it must not be stored where it could evict a live entry."""
    cache = VersionedReadCache(capacity=4)
    cache.advance(2)
    cache.put(b"stale", 1, b"dead")
    assert len(cache) == 0
    assert cache.get(b"stale") == (False, None)
    # Live entries fill the cache; a stale put must not displace them.
    for key in (b"a", b"b", b"c", b"d"):
        cache.put(key, 2, b"live")
    cache.put(b"stale", 0, b"dead")
    assert len(cache) == 4
    for key in (b"a", b"b", b"c", b"d"):
        assert cache.get(key) == (True, b"live")
    # Entries stamped exactly at the floor are current and stay valid.
    cache.put(b"e", 2, b"live")
    assert cache.get(b"e") == (True, b"live")


def test_cache_stats_snapshot_consistent_under_concurrent_mutation():
    """stats() must be one locked snapshot: hits + misses == lookups and
    hit_rate derives from that same pair in every observation, even while
    executor-like threads hammer the counters."""
    import threading

    cache = VersionedReadCache(capacity=64)
    stop = threading.Event()
    epoch = [0]

    def churn(tid):
        n = 0
        while not stop.is_set():
            version = epoch[0]
            cache.put((tid, n % 97), version, b"v")
            cache.get((tid, n % 97))  # mostly hits
            cache.get((tid, (n + 13) % 89, "miss"))
            n += 1

    def commit():
        while not stop.is_set():
            epoch[0] += 1
            cache.advance(epoch[0])

    threads = [threading.Thread(target=churn, args=(t,)) for t in range(3)]
    threads.append(threading.Thread(target=commit))
    for thread in threads:
        thread.start()
    try:
        for _ in range(500):
            snap = cache.stats()
            assert snap["lookups"] == snap["hits"] + snap["misses"]
            if snap["lookups"]:
                assert snap["hit_rate"] == snap["hits"] / snap["lookups"]
            assert 0 <= snap["entries"] <= snap["capacity"]
    finally:
        stop.set()
        for thread in threads:
            thread.join()


# =============================================================================
# server end-to-end (real sockets)
# =============================================================================

def serve(engine, **config_kwargs):
    """Context manager: engine behind a ColeServer on a loop thread."""
    return ServerThread(engine, config=ServerConfig(**config_kwargs))


def test_put_get_read_your_writes(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            assert await client.get(addr_of(1)) is None
            height = await client.put(addr_of(1), value_of(1))
            assert height >= 1
            # Buffered write is visible before any commit (overlay).
            assert await client.get(addr_of(1)) == value_of(1)
            info = await client.flush()
            assert info.height == height
            # Committed write is visible after the overlay is gone.
            assert await client.get(addr_of(1)) == value_of(1)
            assert await client.get(addr_of(2)) is None

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_group_commit_coalesces_and_size_flushes(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for n in range(40):
                await client.put(addr_of(n), value_of(n))
            await client.flush()
            stats = await client.stats()
            batcher = stats["batcher"]
            assert batcher["batched_puts"] == 40
            # 40 puts at threshold 16: at least two size-triggered flushes,
            # each block carrying many puts.
            assert batcher["size_flushes"] >= 2
            assert batcher["avg_batch"] > 4.0
            assert stats["engine"]["puts_total"] == 40

    with serve(engine, batch_max_puts=16, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_timer_flush_commits_without_reaching_size(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(7), value_of(7))
            deadline = asyncio.get_running_loop().time() + 5.0
            while True:
                stats = await client.stats()
                if stats["batcher"]["commits"] >= 1:
                    break
                assert asyncio.get_running_loop().time() < deadline, (
                    "timer flush never fired"
                )
                await asyncio.sleep(0.01)
            assert stats["batcher"]["timer_flushes"] >= 1
            assert await client.get(addr_of(7)) == value_of(7)

    with serve(engine, batch_max_puts=1000, batch_max_delay=0.02) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_one_group_commit_is_one_pooled_engine_call(tmp_path):
    """The block and its WAL COMMIT marker share one executor hop."""
    from repro.server.batcher import WriteBatcher
    from repro.wal import WriteAheadLog
    from repro.wal.record import RecordType

    engine = Cole(str(tmp_path / "ws"), PARAMS)
    wal = WriteAheadLog(str(tmp_path / "wal"), sync_policy="none")
    pooled = []

    async def scenario():
        loop = asyncio.get_running_loop()

        def run(fn, *args):
            pooled.append(fn.__name__)
            return loop.run_in_executor(None, fn, *args)

        batcher = WriteBatcher(engine, max_delay=60.0, run_in_executor=run, wal=wal)
        batcher.put(addr_of(1), value_of(1))
        batcher.put(addr_of(2), value_of(2))
        return await batcher.flush()

    root, height = asyncio.run(scenario())
    assert pooled == ["_commit"]
    commits = [
        record for record in wal.scan() if record.type == RecordType.COMMIT
    ]
    assert [(record.height, bytes(record.root)) for record in commits] == [(height, root)]
    wal.close()
    engine.close()


def test_cache_serves_hot_reads_and_invalidates_on_commit(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(1), value_of(1))
            await client.flush()
            for _ in range(5):
                assert await client.get(addr_of(1)) == value_of(1)
            stats = await client.stats()
            assert stats["cache"]["hits"] >= 4
            # Overwrite: the next read must see the new value, never the
            # cached pre-commit answer.
            await client.put(addr_of(1), value_of(2))
            assert await client.get(addr_of(1)) == value_of(2)  # overlay
            await client.flush()
            assert await client.get(addr_of(1)) == value_of(2)  # engine/cache
            stats = await client.stats()
            assert stats["version"] == 2

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_get_at_history_through_server(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            heights = []
            for round_no in range(3):
                heights.append(await client.put(addr_of(5), value_of(round_no)))
                await client.flush()
            for round_no, height in enumerate(heights):
                assert await client.get_at(addr_of(5), height) == value_of(round_no)
            assert await client.get_at(addr_of(5), heights[0] - 1) is None
            # A buffered (uncommitted) write answers get_at for its own
            # target height and beyond.
            target = await client.put(addr_of(5), value_of(9))
            assert await client.get_at(addr_of(5), target) == value_of(9)
            assert await client.get_at(addr_of(5), target - 1) == value_of(2)

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_prov_over_the_wire_verifies(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for round_no in range(4):
                await client.put(addr_of(3), value_of(round_no))
                await client.flush()
            info = await client.root()
            result, root = await client.prov(addr_of(3), 1, info.height)
            assert root == info.digest
            versions = verify_provenance(result, root, addr_size=ADDR)
            assert [value for _blk, value in versions] == [
                value_of(n) for n in range(4)
            ]
            # PROV forces the buffered batch in before anchoring.
            await client.put(addr_of(3), value_of(8))
            result, root = await client.prov(addr_of(3), 1, info.height + 1)
            versions = verify_provenance(result, root, addr_size=ADDR)
            assert versions[-1][1] == value_of(8)

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_scan_over_the_wire_pages_and_sees_buffered_writes(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for n in range(30):
                await client.put(addr_of(n), value_of(n))
            # No explicit flush: SCAN snapshots at the current commit
            # version, forcing the buffered batch in first.
            low, high = addr_of(0), addr_of(29)
            rows = await client.scan(low, high, page_size=7)
            assert rows == [(addr_of(n), 1, value_of(n)) for n in range(30)]
            stats = await client.stats()
            assert stats["ops"]["scan"] >= 5  # continuation paging happened
            assert stats["buffered_puts"] == 0
            # Bounded range + limit.
            rows = await client.scan(addr_of(5), addr_of(20), limit=4)
            assert rows == [(addr_of(n), 1, value_of(n)) for n in range(5, 9)]
            # Historical scan: before any commit nothing existed.
            assert await client.scan(low, high, at_blk=0) == []
            # Overwrites surface the newest version at its new height.
            await client.put(addr_of(3), value_of(99))
            rows = await client.scan(addr_of(3), addr_of(3))
            assert rows[0][2] == value_of(99) and rows[0][1] == 2

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_paged_scan_is_snapshot_consistent_across_interleaved_commits(tmp_path):
    """Writers committing between a scan's pages must not tear the
    reassembled result: continuation pages are pinned to the first
    page's snapshot height."""
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for n in range(30):
                await client.put(addr_of(n), value_of(n))
            await client.flush()

            # Issue the scan page by page by hand, committing an
            # overwrite of an early address between pages.
            conn = client._conn
            body = await conn.request(
                protocol.encode_scan(addr_of(0), addr_of(29), None, 10)
            )
            page1, cont, height = protocol.decode_scan_response(body)
            assert cont == addr_of(10)
            await client.put(addr_of(25), value_of(999))
            await client.flush()  # a new epoch lands mid-scan
            collected = list(page1)
            while cont is not None:
                body = await conn.request(
                    protocol.encode_scan(cont, addr_of(29), height, 10)
                )
                rows, cont, _height = protocol.decode_scan_response(body)
                collected.extend(rows)
            # The reassembled scan is exactly the pre-write snapshot.
            assert collected == [
                (addr_of(n), 1, value_of(n)) for n in range(30)
            ]
            # ... and the typed client does the pinning automatically.
            fresh = await client.scan(addr_of(0), addr_of(29), page_size=10)
            assert fresh[25] == (addr_of(25), 2, value_of(999))

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_scan_page_cap_bounds_single_response(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for n in range(20):
                await client.put(addr_of(n), value_of(n))
            # One raw request above the server's page cap: the response
            # carries at most scan_page_max rows plus a continuation.
            body = await client._conn.request(
                protocol.encode_scan(addr_of(0), addr_of(19), None, 1000)
            )
            rows, continuation, height = protocol.decode_scan_response(body)
            assert len(rows) == 6
            assert continuation == addr_of(6)
            assert height >= 1  # pinned at the committed height
            # The typed client reassembles the full range regardless.
            rows = await client.scan(addr_of(0), addr_of(19))
            assert len(rows) == 20

    with serve(
        engine, batch_max_puts=1000, batch_max_delay=60.0, scan_page_max=6
    ) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_malformed_write_reports_error_and_serving_continues(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(1), value_of(1))
            with pytest.raises(StorageError, match="address must be"):
                await client.put(b"short", value_of(1))
                await client.flush()
            # The failed batch is gone but the connection still serves.
            assert await client.get(addr_of(2)) is None

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_a_failed_group_commit_stops_every_later_write(tmp_path):
    """A commit that raises in a size-triggered flush — a task nobody
    awaits — stops the primary: later writes are refused, FLUSH raises,
    STATS says so, and nothing acked after it names an uncommitted height."""
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    def failing_commit(height, items):
        raise StorageError("injected commit failure")

    async def scenario(thread, host, port):
        batcher = thread.server.committer
        async with ServerClient(host, port) as client:
            for n in range(4):  # a full batch: block 1 commits
                await client.put(addr_of(n), value_of(n))
            committed = await client.flush()
            assert committed.height == 1
            batcher._commit = failing_commit
            for n in range(4, 8):  # the next full batch's commit raises
                await client.put(addr_of(n), value_of(n))
            for _ in range(500):
                if (await client.stats())["batcher"]["commit_failed"]:
                    break
                await asyncio.sleep(0.01)
            acked_after = []
            for write in (client.put(addr_of(9), value_of(9)),
                          client.multi_put([(addr_of(10), value_of(10))]),
                          client.flush()):
                with pytest.raises(StorageError, match="no more writes"):
                    acked_after.append(await write)
            assert acked_after == []
            assert await client.root() == committed
            assert await client.get(addr_of(5)) is None  # the lost batch is not served
            assert await client.get(addr_of(1)) == value_of(1)

    with serve(engine, batch_max_puts=4, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(thread, *thread.start()))
    engine.close()


def test_pipelining_many_inflight_on_one_connection(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            writes = [client.put(addr_of(n), value_of(n)) for n in range(64)]
            await asyncio.gather(*writes)
            await client.flush()
            reads = [client.get(addr_of(n)) for n in range(64)]
            values = await asyncio.gather(*reads)
            assert values == [value_of(n) for n in range(64)]

    with serve(engine, batch_max_puts=32, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_server_over_reopened_workspace_continues_heights(tmp_path):
    directory = str(tmp_path / "ws")
    engine = Cole(directory, PARAMS)
    for blk in range(1, 6):
        engine.begin_block(blk)
        for n in range(32):  # enough volume to cascade (B = 64)
            engine.put(addr_of(n), value_of(blk))
        engine.commit_block()
    engine.close()

    reopened = Cole(directory, PARAMS)
    assert reopened.checkpoint_blk >= 1  # runs are durable

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            # New writes land strictly above every durable height.
            height = await client.put(addr_of(1), value_of(99))
            assert height > reopened.checkpoint_blk
            await client.flush()
            assert await client.get(addr_of(1)) == value_of(99)

    with serve(reopened, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    reopened.close()


# =============================================================================
# the acceptance scenario: >= 32 concurrent clients, byte-identical
# =============================================================================

def test_service_matches_direct_engine_32_clients(tmp_path):
    """Mixed YCSB read/write traffic from 32 concurrent clients over TCP
    must leave exactly the state a direct in-process run produces."""
    cole = ColeParams(
        system=SystemParams(addr_size=32, value_size=40),
        mem_capacity=128,
        size_ratio=3,
        async_merge=True,
    )
    served = Cole(str(tmp_path / "served"), cole)
    params = LoadgenParams(
        clients=32, ops_per_client=40, num_keys=400, read_fraction=0.5, seed=13
    )

    async def scenario(host, port):
        report = await run_loadgen(lambda: connect((host, port)), params)
        assert report.errors == 0
        assert report.ops == params.clients * params.ops_per_client
        # The cache saw real traffic and served some of it.
        assert report.server_stats["cache"]["hits"] > 0
        assert report.server_stats["batcher"]["avg_batch"] > 1.0
        # Compare every key byte-for-byte against the direct run: every
        # client's puts in one block, where the last put of a key wins.
        direct = Cole(str(tmp_path / "direct"), cole)
        try:
            direct.begin_block(1)
            direct.put_many(
                (addr, value)
                for client_id in range(params.clients)
                for kind, addr, value in client_ops(params, client_id)
                if kind == "put"
            )
            direct.commit_block()
            async with ServerClient(host, port) as client:
                for rank in range(params.num_keys):
                    addr = key_addr(rank, params.addr_size)
                    assert await client.get(addr) == direct.get(addr), rank
        finally:
            direct.close()

    with serve(served, batch_max_puts=256, batch_max_delay=0.004) as thread:
        asyncio.run(scenario(*thread.start()))
    served.close()


def test_loadgen_streams_are_deterministic_and_partitioned():
    params = LoadgenParams(clients=4, ops_per_client=50, num_keys=64, seed=5)
    streams = [client_ops(params, cid) for cid in range(params.clients)]
    again = [client_ops(params, cid) for cid in range(params.clients)]
    assert streams == again
    # Write partitioning: no address is written by two clients.
    writers = {}
    for cid, stream in enumerate(streams):
        for kind, addr, _value in stream:
            if kind == "put":
                assert writers.setdefault(addr, cid) == cid
    assert writers  # the mix produced writes at all


def test_loadgen_scan_mix_and_workload_e_preset():
    # With scans disabled the stream is unchanged by the scan support
    # (one RNG draw per op decides the kind, exactly as before).
    base = LoadgenParams(clients=2, ops_per_client=80, num_keys=64, seed=5)
    with_flag = LoadgenParams(
        clients=2, ops_per_client=80, num_keys=64, seed=5, scan_fraction=0.0
    )
    assert [client_ops(base, c) for c in range(2)] == [
        client_ops(with_flag, c) for c in range(2)
    ]
    # Workload E's mix (95% scans, 5% updates): scan-heavy,
    # deterministic, bounded scan lengths.
    params = LoadgenParams(
        clients=2, ops_per_client=200, num_keys=64, scan_length=9, seed=5,
        read_fraction=0.0, scan_fraction=0.95,
    )
    stream = client_ops(params, 0)
    assert stream == client_ops(params, 0)
    kinds = [op[0] for op in stream]
    assert kinds.count("scan") > 150
    assert "get" not in kinds
    assert all(1 <= op[2] <= 9 for op in stream if op[0] == "scan")


def test_loadgen_scan_params_validate():
    with pytest.raises(ValueError):
        LoadgenParams(scan_fraction=1.5)
    with pytest.raises(ValueError):
        LoadgenParams(read_fraction=0.6, scan_fraction=0.6)
    with pytest.raises(ValueError):
        LoadgenParams(scan_length=0)


def test_loadgen_run_with_scans_reports_scan_latencies(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    params = LoadgenParams(
        clients=4,
        ops_per_client=40,
        num_keys=64,
        addr_size=ADDR,
        value_size=VALUE,
        read_fraction=0.3,
        scan_fraction=0.4,
        scan_length=8,
        seed=3,
    )

    async def scenario(host, port):
        report = await run_loadgen(lambda: connect((host, port)), params)
        assert report.errors == 0, report.error_samples
        assert report.ops == 160
        rows = {row["op"]: row for row in report.rows()}
        assert list(rows) == ["get", "put", "scan", "all"]
        assert rows["scan"]["count"] > 0
        assert sum(rows[kind]["count"] for kind in ("get", "put", "scan")) == report.ops
        assert rows["all"]["count"] == report.ops
        assert rows["scan"]["p99_s"] >= rows["scan"]["p50_s"] >= 0.0
        # A scan row's keys are the entries the scans returned.
        assert rows["scan"]["keys"] == report.keys["scan"] > 0
        assert rows["all"]["keys"] == sum(rows[kind]["keys"] for kind in ("get", "put", "scan"))
        assert rows["all"]["errors"] == 0

    with serve(engine, batch_max_puts=64, batch_max_delay=0.005) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_more_clients_than_keys_keeps_single_writer():
    params = LoadgenParams(clients=40, ops_per_client=30, num_keys=16, seed=9)
    writers = {}
    for cid in range(params.clients):
        for kind, addr, _value in client_ops(params, cid):
            if kind == "put":
                assert writers.setdefault(addr, cid) == cid
    # Clients with an empty partition degraded to reads, not to writing
    # someone else's keys.
    assert len({cid for cid in writers.values()}) <= params.num_keys


def test_stats_op_shape(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(1), value_of(1))
            await client.flush()
            await client.get(addr_of(1))
            stats = await client.stats()
            assert stats["ops"]["put"] == 1
            assert stats["ops"]["get"] == 1
            assert stats["committed_height"] == 1
            assert set(stats["cache"]) == {
                "hits", "misses", "lookups", "hit_rate", "entries", "capacity",
                "refreshed",
            }
            # The one GET reached the engine and was answered on the loop.
            assert stats["reads"] == {"inline": 1, "pooled": 0, "would_block": 0}
            assert "page_reads" in stats["io"]

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_server_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(batch_max_puts=0)
    with pytest.raises(ValueError):
        ServerConfig(batch_max_delay=0)
    with pytest.raises(ValueError):
        ServerConfig(executor_workers=0)
    with pytest.raises(ValueError):
        VersionedReadCache(capacity=0)


# =============================================================================
# ServerThread lifecycle
# =============================================================================

def test_server_thread_start_and_stop_are_idempotent(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    before = set(threading.enumerate())
    thread = ServerThread(engine)
    try:
        address = thread.start()
        assert thread.start() == address  # a second start: the same server

        async def scenario():
            async with ServerClient(*address) as client:
                await client.put(addr_of(1), value_of(1))
                assert await client.get(addr_of(1)) == value_of(1)

        asyncio.run(scenario())
        thread.stop()
        thread.stop()  # a second stop is a no-op
        assert set(threading.enumerate()) - before == set()
    finally:
        thread.stop()
        engine.close()


@pytest.mark.parametrize("role", ["primary-with-wal", "replica"])
def test_a_failed_start_leaves_nothing_running(tmp_path, role):
    """A bind error surfaces from ``start()`` in the caller's thread, and
    the start undoes what it built first: no pool thread outlives it and
    a replica's applier task is cancelled, not left pending."""
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    wal = WriteAheadLog(str(tmp_path / "wal")) if role == "primary-with-wal" else None
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        host, port = holder.getsockname()
        replica_of = (host, port) if role == "replica" else None
        before = set(threading.enumerate())
        thread = ServerThread(engine, port=port, wal=wal, replica_of=replica_of)
        try:
            with pytest.raises(OSError):
                thread.start()
            assert set(threading.enumerate()) - before == set()
            if role == "replica":
                assert thread.server.committer._task.cancelled()
        finally:
            thread.stop()
            if wal is not None:
                wal.close()
            engine.close()


# =============================================================================
# loadgen error surfacing (regression: silent failure swallowing)
# =============================================================================

class _FaultyServerThread:
    """A protocol-speaking server that fails every Nth data op.

    Runs on its own event-loop thread so both in-loop callers
    (``run_loadgen``) and blocking callers (``repro loadgen``, which
    owns its own ``asyncio.run``) can be driven against it.
    """

    def __init__(self, every: int = 3) -> None:
        self.every = every
        self.data_ops = 0
        self._loop = None
        self._server = None
        self._addr = None
        self._thread = None
        self._ready = None

    async def _handle(self, reader, writer):
        import json as json_mod

        try:
            while True:
                body = await read_frame(reader)
                if body is None:
                    break
                op, _args = protocol.decode_request(body)
                if op in (Op.PUT, Op.GET, Op.GET_AT):
                    self.data_ops += 1
                    if self.data_ops % self.every == 0:
                        writer.write(protocol.encode_error("injected fault"))
                    elif op == Op.PUT:
                        writer.write(protocol.encode_height_response(1))
                    else:
                        writer.write(protocol.encode_value_response(None))
                elif op in (Op.ROOT, Op.FLUSH):
                    writer.write(
                        protocol.encode_root_response(RootInfo(b"\x00" * 8, 0, 0))
                    )
                else:
                    writer.write(
                        protocol.encode_blob_response(json_mod.dumps({}).encode())
                    )
                await writer.drain()
        finally:
            # stop() cancels this task: the socket still has to go.
            writer.close()

    def start(self):
        import threading

        self._ready = threading.Event()

        def run():
            async def main():
                self._server = await asyncio.start_server(
                    self._handle, "127.0.0.1", 0
                )
                self._addr = self._server.sockets[0].getsockname()[:2]
                self._loop = asyncio.get_running_loop()
                self._ready.set()
                async with self._server:
                    try:
                        await self._server.serve_forever()
                    except asyncio.CancelledError:
                        pass

            asyncio.run(main())

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        assert self._ready.wait(timeout=10.0)
        return self._addr

    def stop(self):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                lambda: [task.cancel() for task in asyncio.all_tasks(self._loop)]
            )
        self._thread.join(timeout=10.0)


def test_loadgen_counts_and_samples_op_errors():
    """Every 3rd data op fails: the report must carry the count, the
    exception kind, and a verbatim sample — not a clean throughput."""
    faulty = _FaultyServerThread(every=3)
    host, port = faulty.start()
    try:
        params = LoadgenParams(clients=3, ops_per_client=30, seed=5)
        report = asyncio.run(run_loadgen(lambda: connect((host, port)), params))
    finally:
        faulty.stop()
    total = 3 * 30
    assert report.errors > 0
    assert report.ops + report.errors == total
    assert report.errors_by_type.get("StorageError") == report.errors
    assert any("injected fault" in sample for sample in report.error_samples)
    total_row = report.rows()[-1]
    assert total_row["op"] == "all"
    assert total_row["errors"] == report.errors
    assert total_row["count"] == report.ops


def test_repro_loadgen_exits_nonzero_when_ops_error(capsys):
    """CLI contract: a run that saw op errors must not exit 0."""
    import json as json_mod

    from repro.cli import main as cli_main

    faulty = _FaultyServerThread(every=4)
    host, port = faulty.start()
    try:
        rc = cli_main([
            "loadgen", "--host", host, "--port", str(port),
            "--clients", "2", "--ops", "12", "-f", "json",
        ])
    finally:
        faulty.stop()
    assert rc == 1
    captured = capsys.readouterr()
    total_row = json_mod.loads(captured.out)[-1]
    assert total_row["op"] == "all"
    assert total_row["errors"] > 0
    # The error count by type and a verbatim sample go to stderr.
    assert f"errors: {total_row['errors']} (StorageError x{total_row['errors']})" in captured.err
    assert "e.g. StorageError: server error: injected fault" in captured.err


def test_repro_loadgen_exits_zero_on_clean_run(tmp_path, capsys):
    from repro.cli import main as cli_main

    engine = Cole(
        str(tmp_path / "ws"),
        ColeParams(async_merge=True, mem_capacity=512),  # loadgen's 32B addrs
    )
    with serve(engine, batch_max_puts=64, batch_max_delay=0.005) as thread:
        host, port = thread.start()
        rc = cli_main([
            "loadgen", "--host", host, "--port", str(port),
            "--clients", "2", "--ops", "15", "--num-keys", "64",
        ])
    engine.close()
    assert rc == 0
    captured = capsys.readouterr()
    header, _rule, *rows = captured.out.splitlines()
    columns = header.split()
    assert columns == ["op", "count", "keys", "p50_s", "p99_s", "max_s",
                       "ops_per_s", "errors", "elapsed_s", "clients"]
    total_row = rows[-1].split()
    assert total_row[0] == "all"
    assert total_row[columns.index("count")] == "30"
    assert total_row[columns.index("errors")] == "0"
    assert captured.err == ""
