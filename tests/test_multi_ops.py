"""Batched protocol ops and the caches behind them.

Covers the MULTI_GET / MULTI_PUT wire framing (round trips and every
malformed-frame rejection), the batched engine read path
(``Cole.get_many``), the negative-lookup
cache, and the loadgen ``--multi-get-size`` mode — ending end-to-end
over real sockets, like ``tests/test_server.py``.
"""

import asyncio
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.server import (
    LoadgenParams,
    ServerClient,
    ServerConfig,
    ServerThread,
    client_ops,
    connect,
    run_loadgen,
)
from repro.server import protocol
from repro.server.cache import MISSING, NegativeLookupCache, VersionedReadCache
from repro.server.protocol import MAX_MULTI_BATCH, NotPrimaryError, Op, Status
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


def serve(engine, **config_kwargs):
    return ServerThread(engine, config=ServerConfig(**config_kwargs))


# =============================================================================
# wire framing
# =============================================================================

def test_multi_get_request_round_trips():
    addrs = [addr_of(n) for n in range(5)]
    frame = protocol.encode_multi_get(addrs)
    assert len(frame) - 4 == int.from_bytes(frame[:4], "big")
    assert protocol.decode_request(frame[4:]) == (Op.MULTI_GET, (addrs,))
    single = protocol.encode_multi_get([addr_of(9)])
    assert protocol.decode_request(single[4:]) == (Op.MULTI_GET, ([addr_of(9)],))


def test_multi_put_request_round_trips():
    items = [(addr_of(n), value_of(n)) for n in range(7)]
    body = protocol.encode_multi_put(items)[4:]
    assert protocol.decode_request(body) == (Op.MULTI_PUT, (items,))


def test_multi_get_response_round_trips():
    # Mixed present / absent results, positionally matched.
    values = [value_of(1), None, value_of(2), None, None]
    body = protocol.encode_multi_get_response(values)[4:]
    assert protocol.decode_multi_get_response(body) == values
    with pytest.raises(StorageError, match="boom"):
        protocol.decode_multi_get_response(protocol.encode_error("boom")[4:])


def test_multi_encode_rejects_bad_batch_sizes():
    with pytest.raises(StorageError, match="empty"):
        protocol.encode_multi_get([])
    with pytest.raises(StorageError, match="empty"):
        protocol.encode_multi_put([])
    oversize = [addr_of(n) for n in range(MAX_MULTI_BATCH + 1)]
    with pytest.raises(StorageError, match="cap"):
        protocol.encode_multi_get(oversize)


def test_the_client_refuses_empty_and_oversize_batches():
    """The batch is checked before any connection opens, so no server
    runs here."""
    client = ServerClient("127.0.0.1", 1)
    oversize = [addr_of(n) for n in range(MAX_MULTI_BATCH + 1)]

    async def scenario():
        for call, batch, match in (
            (client.multi_get, [], "empty"),
            (client.multi_put, [], "empty"),
            (client.multi_get, oversize, "cap"),
            (client.multi_put, [(addr, value_of(0)) for addr in oversize], "cap"),
        ):
            with pytest.raises(StorageError, match=match):
                await call(batch)

    asyncio.run(scenario())


def test_multi_decode_rejects_malformed_frames():
    # Zero keys.
    with pytest.raises(StorageError, match="empty"):
        protocol.decode_request(bytes([Op.MULTI_GET]) + (0).to_bytes(2, "big"))
    # Count over the batch cap (u16 can express up to 65535).
    with pytest.raises(StorageError, match="cap"):
        protocol.decode_request(
            bytes([Op.MULTI_GET]) + (MAX_MULTI_BATCH + 1).to_bytes(2, "big")
        )
    # Count / payload mismatch: count says 3, payload holds one address.
    good = protocol.encode_multi_get([addr_of(1)])[4:]
    mismatched = bytes([good[0]]) + (3).to_bytes(2, "big") + good[3:]
    with pytest.raises(StorageError, match="truncated"):
        protocol.decode_request(mismatched)
    # Trailing bytes after a complete batch.
    with pytest.raises(StorageError, match="trailing"):
        protocol.decode_request(good + b"\x00")
    put = protocol.encode_multi_put([(addr_of(1), value_of(1))])[4:]
    with pytest.raises(StorageError, match="trailing"):
        protocol.decode_request(put + b"\x00")


# =============================================================================
# batched engine reads
# =============================================================================

def _load_versions(engine, rounds: int = 8, width: int = 40) -> None:
    """Commit overlapping updates so lookups span L0 and merged runs."""
    for blk in range(1, rounds + 1):
        engine.begin_block(blk)
        engine.put_many(
            [(addr_of(n), value_of(n * 1000 + blk)) for n in range(blk, width + blk)]
        )
        engine.commit_block()
    engine.wait_for_merges()


def test_cole_get_many_matches_get(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    try:
        _load_versions(engine)
        # Present, absent, and duplicated addresses, unsorted.
        addrs = [addr_of(n) for n in range(60, -1, -1)]
        addrs += [addr_of(5), addr_of(5), addr_of(10_000)]
        assert engine.get_many(addrs) == [engine.get(addr) for addr in addrs]
        assert engine.get_many([]) == []
    finally:
        engine.close()


# =============================================================================
# negative-lookup cache
# =============================================================================

def test_negative_cache_entry_dies_with_the_commit_that_writes_it():
    cache = NegativeLookupCache(capacity=8)
    cache.add(b"k", 3)
    cache.add(b"other", 3)
    assert cache.contains(b"k")
    # A commit that wrote k makes its proof of absence stale; one for an
    # address the commit did not write stands.
    cache.advance(4, [(b"k", b"v")])
    assert not cache.contains(b"k")
    assert cache.contains(b"other")
    assert len(cache) == 1


def test_negative_cache_drops_fills_behind_the_epoch():
    cache = NegativeLookupCache(capacity=4)
    cache.advance(5)
    cache.add(b"stale", 4)  # raced a commit: dead on arrival
    assert len(cache) == 0
    cache.add(b"live", 5)  # stamped exactly at the floor: current
    assert cache.contains(b"live")


def test_negative_cache_lru_eviction_and_stats():
    cache = NegativeLookupCache(capacity=2)
    cache.add(b"a", 1)
    cache.add(b"b", 1)
    assert cache.contains(b"a")  # refresh a
    cache.add(b"c", 1)  # evicts b
    assert not cache.contains(b"b")
    assert cache.contains(b"a")
    snap = cache.stats()
    assert snap["lookups"] == snap["hits"] + snap["misses"]
    assert snap["hit_rate"] == snap["hits"] / snap["lookups"]


def test_negative_cache_capacity_zero_disables():
    cache = NegativeLookupCache(capacity=0)
    cache.add(b"k", 1)
    assert not cache.contains(b"k")
    assert len(cache) == 0


def test_server_negative_cache_serves_repeated_misses(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(1), value_of(1))
            await client.flush()
            for _ in range(3):
                assert await client.get(addr_of(404)) is None
            stats = await client.stats()
            negative = stats["negative_cache"]
            assert negative["hits"] >= 2  # first miss walks, the rest hit
            # Writing the address invalidates the proof of absence.
            await client.put(addr_of(404), value_of(404))
            await client.flush()
            assert await client.get(addr_of(404)) == value_of(404)

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


# =============================================================================
# server end-to-end (real sockets)
# =============================================================================

def test_multi_put_multi_get_end_to_end(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            items = [(addr_of(n), value_of(n)) for n in range(24)]
            height = await client.multi_put(items)
            assert height >= 1
            # Read-your-writes before any commit: the whole batch is in
            # the overlay, mixed with genuinely absent keys.
            addrs = [addr_of(n) for n in (0, 5, 23, 99, 5)]
            assert await client.multi_get(addrs) == [
                value_of(0), value_of(5), value_of(23), None, value_of(5)
            ]
            info = await client.flush()
            assert info.height == height
            # And after the commit, served from the engine.
            assert await client.multi_get(addrs) == [
                value_of(0), value_of(5), value_of(23), None, value_of(5)
            ]
            stats = await client.stats()
            assert stats["ops"]["multi_get"] == 2
            assert stats["ops"]["multi_put"] == 1
            assert stats["batcher"]["multi_put_batches"] == 1

    with serve(engine, batch_max_puts=1000, batch_max_delay=60.0) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_malformed_multi_frames_get_clean_errors_over_the_wire(tmp_path):
    """Hand-crafted bad frames (the client refuses to build them) must
    draw a Status error and leave the connection usable."""
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            bad_bodies = [
                # zero keys
                bytes([Op.MULTI_GET]) + (0).to_bytes(2, "big"),
                # count over the cap
                bytes([Op.MULTI_PUT]) + (MAX_MULTI_BATCH + 1).to_bytes(2, "big"),
                # count/payload mismatch (count 3, one address)
                bytes([Op.MULTI_GET])
                + (3).to_bytes(2, "big")
                + protocol.pack_bytes16(addr_of(1)),
                # trailing bytes after a complete request, on any op
                protocol.encode_put(addr_of(1), value_of(1))[4:] + b"JUNK",
                protocol.encode_get(addr_of(1))[4:] + b"JUNK",
                bytes([Op.ROOT]) + b"JUNK",
                protocol.encode_scan(addr_of(0), addr_of(9), None, 0)[4:] + b"JUNK",
            ]
            for body in bad_bodies:
                writer.write(len(body).to_bytes(4, "big") + body)
                await writer.drain()
                response = await read_frame(reader)
                with pytest.raises(StorageError):
                    protocol.decode_multi_get_response(response)
            # The connection survived every rejection.
            writer.write(protocol.encode_get(addr_of(1)))
            await writer.drain()
            response = await read_frame(reader)
            assert protocol.decode_value_response(response) is None
        finally:
            writer.close()
            await writer.wait_closed()

    with serve(engine) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


def test_replica_rejects_multi_put_with_primary_referral(tmp_path):
    from repro.wal import WriteAheadLog

    engine = Cole(str(tmp_path / "primary"), PARAMS)
    wal = WriteAheadLog(str(tmp_path / "wal"), sync_policy="none")
    replica_engine = Cole(str(tmp_path / "replica"), PARAMS)
    with ServerThread(engine, config=ServerConfig(), wal=wal) as primary:
        phost, pport = primary.start()
        with ServerThread(replica_engine, replica_of=(phost, pport)) as rt:
            rhost, rport = rt.start()

            async def scenario():
                items = [(addr_of(1), value_of(1))]
                async with ServerClient(rhost, rport) as rc:
                    with pytest.raises(NotPrimaryError) as exc:
                        await rc.multi_put(items)
                    assert exc.value.address == f"{phost}:{pport}"
                    # Reads still serve from the replica.
                    assert await rc.multi_get([addr_of(1)]) == [None]

            asyncio.run(scenario())
    wal.close()
    engine.close()
    replica_engine.close()


def test_a_connection_reset_mid_pipeline_fails_requests_without_crossing_answers():
    """The server answers the first of three pipelined requests, then
    resets the connection.  The first request gets its own answer; the
    two behind it fail (they never resolve with somebody else's answer,
    and never hang); a send on the dead socket fails fast too."""

    async def scenario():
        async def reset_after_one(reader, writer):
            await read_frame(reader)
            writer.write(protocol.encode_value_response(value_of(1)))
            await writer.drain()
            await read_frame(reader)
            writer.transport.abort()

        server = await asyncio.start_server(reset_after_one, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            async with ServerClient(host, port) as client:
                answers = await asyncio.wait_for(
                    asyncio.gather(
                        client.get(addr_of(1)),
                        client.get(addr_of(2)),
                        client.multi_get([addr_of(1), addr_of(2)]),
                        return_exceptions=True,
                    ),
                    5,
                )
                assert answers[0] == value_of(1)
                for failed in answers[1:]:
                    assert isinstance(failed, (StorageError, ConnectionError))
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.get(addr_of(1)), 5)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


def test_request_after_the_server_hung_up_fails_instead_of_hanging():
    """Once the server closes a connection the socket may still take
    writes, so a request must fail — in flight when the hang-up lands, or
    sent after it (then with a retryable ConnectionError) — rather than
    wait forever for a response nobody sends."""

    async def scenario():
        async def hang_up(reader, writer):
            writer.close()

        server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            async with ServerClient(host, port) as client:
                with pytest.raises((StorageError, ConnectionError)):
                    await asyncio.wait_for(client.get(addr_of(1)), 5)
                # The first failure was the hang-up arriving: from here on
                # the client knows, and says so without touching the wire.
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.get(addr_of(1)), 5)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


# =============================================================================
# loadgen MULTI_GET mode
# =============================================================================

def test_client_ops_multi_get_batches_are_deterministic():
    base = LoadgenParams(
        clients=2, ops_per_client=50, read_fraction=0.6, num_keys=64,
        addr_size=ADDR, value_size=VALUE, seed=11,
    )
    batched = LoadgenParams(
        clients=2, ops_per_client=50, read_fraction=0.6, num_keys=64,
        addr_size=ADDR, value_size=VALUE, seed=11, multi_get_size=4,
    )
    plain = client_ops(base, 0)
    mget = client_ops(batched, 0)
    assert mget == client_ops(batched, 0)  # deterministic
    # Same op-kind schedule: reads became mget batches, writes unchanged.
    assert [op[0] for op in plain] == [
        "get" if op[0] == "mget" else op[0] for op in mget
    ]
    assert [op for op in plain if op[0] == "put"] == [
        op for op in mget if op[0] == "put"
    ]
    for kind, addrs, extra in mget:
        if kind == "mget":
            assert len(addrs) == 4
            assert all(len(addr) == ADDR for addr in addrs)
            assert extra is None


def test_loadgen_params_validate_multi_get_size():
    with pytest.raises(ValueError, match="multi_get_size"):
        LoadgenParams(multi_get_size=0)


def test_loadgen_drives_multi_get_end_to_end(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)

    async def scenario(host, port):
        params = LoadgenParams(
            clients=2, ops_per_client=20, read_fraction=0.5, num_keys=64,
            addr_size=ADDR, value_size=VALUE, seed=3, multi_get_size=8,
        )
        report = await run_loadgen(lambda: connect((host, port)), params)
        assert report.errors == 0, report.error_samples
        rows = {row["op"]: row for row in report.rows()}
        assert list(rows) == ["put", "mget", "all"]
        mgets = rows["mget"]["count"]
        assert mgets > 0
        assert report.reads == rows["mget"]["keys"] == 8 * mgets
        assert report.ops == rows["all"]["count"] == mgets + rows["put"]["count"]
        assert rows["mget"]["p99_s"] >= rows["mget"]["p50_s"] > 0.0
        assert report.server_stats["ops"]["multi_get"] == mgets

    with serve(engine) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


# =============================================================================
# the batched ladder answers as the per-key one does
# =============================================================================

def _frame(head: bytes, count: int, payload: bytes) -> bytes:
    return (3 + len(payload)).to_bytes(4, "big") + head + count.to_bytes(2, "big") + payload


def per_key_multi_get(addrs):
    """A MULTI_GET request as the per-key encoder built it."""
    payload = b"".join(len(addr).to_bytes(2, "big") + addr for addr in addrs)
    return _frame(bytes([Op.MULTI_GET]), len(addrs), payload)


def per_key_multi_get_response(values):
    """A MULTI_GET answer as the per-key encoder built it."""
    payload = b"".join(
        b"\x00" if value is None else b"\x01" + len(value).to_bytes(4, "big") + value
        for value in values
    )
    return _frame(bytes([Status.OK]), len(values), payload)


def walk_multi_get_response(body):
    """The per-entry walk: the answer, or ``StorageError``."""
    values, pos = [], 3
    if len(body) < 3 or body[0] != Status.OK:
        raise StorageError("not an OK answer")
    for _ in range(int.from_bytes(body[1:3], "big")):
        if pos >= len(body):
            raise StorageError("truncated")
        if body[pos]:
            end = pos + 5 + int.from_bytes(body[pos + 1:pos + 5], "big")
            if pos + 5 > len(body) or end > len(body):
                raise StorageError("truncated")
            values.append(body[pos + 5:end])
            pos = end
        else:
            values.append(None)
            pos += 1
    if pos != len(body):
        raise StorageError("trailing bytes")
    return values


def answer_or_error(decode, body):
    try:
        return decode(body)
    except StorageError:
        return StorageError


#: One answer per key: present values of one length (the uniform layout)
#: or a mix of absent keys and lengths.
ANSWERS = st.one_of(
    st.integers(0, 48).flatmap(
        lambda size: st.lists(st.binary(min_size=size, max_size=size), min_size=1, max_size=40)
    ),
    st.lists(st.one_of(st.none(), st.binary(max_size=48)), min_size=1, max_size=40),
)


@settings(max_examples=200, deadline=None)
@given(addrs=st.one_of(
    st.integers(0, 40).flatmap(
        lambda size: st.lists(st.binary(min_size=size, max_size=size), min_size=1, max_size=64)
    ),
    st.lists(st.binary(max_size=40), min_size=1, max_size=64),
))
# The uniform layout's length (3 x (2 + 2) bytes) from uneven addresses.
@example(addrs=[b"ab", b"", b"wxyz"])
def test_multi_get_request_bytes_are_the_per_key_encoders(addrs):
    frame = protocol.encode_multi_get(addrs)
    assert frame == per_key_multi_get(addrs)
    assert protocol.decode_request(frame[4:]) == (Op.MULTI_GET, (addrs,))


@settings(max_examples=300, deadline=None)
@given(values=ANSWERS)
# Uniform length, but the second entry is absent and the third longer.
@example(values=[b"a" * 8, None, b"c" * 20])
@example(values=[b"", b""])
@example(values=[None, None])
def test_multi_get_response_bytes_and_answers_are_the_per_key_ones(values):
    frame = protocol.encode_multi_get_response(values)
    assert frame == per_key_multi_get_response(values)
    body = frame[4:]
    assert protocol.decode_multi_get_response(body) == values
    # Bits flipped past the status and count decode as the walk decodes
    # them, or both refuse.
    for bit in range(24, 8 * len(body), 7):
        flipped = bytearray(body)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        flipped = bytes(flipped)
        assert answer_or_error(protocol.decode_multi_get_response, flipped) == \
            answer_or_error(walk_multi_get_response, flipped)


def test_uniform_lookalike_with_a_zero_flag_is_refused():
    """The uniform layout's length, a present first entry, then a zero
    flag and a tail the walk cannot place: refused, not unpacked."""
    body = protocol.encode_multi_get_response([b"v" * 8, b"w" * 8])[4:]
    lookalike = body[:16] + b"\x00" + body[17:]
    with pytest.raises(StorageError):
        protocol.decode_multi_get_response(lookalike)


KEYS = st.lists(st.integers(0, 12), max_size=24)


@settings(max_examples=200, deadline=None)
@given(warm=KEYS, batch=KEYS, fills=KEYS, capacity=st.integers(1, 8), floor=st.integers(0, 2))
def test_batched_cache_calls_are_their_per_key_calls(warm, batch, fills, capacity, floor):
    """``lookup_many`` / ``put_many`` / ``add_many`` against the per-key
    calls on a twin: answers, counters and LRU order all agree."""
    pair = [VersionedReadCache(capacity), VersionedReadCache(capacity)]
    negatives = [NegativeLookupCache(capacity), NegativeLookupCache(capacity)]
    for key in warm:
        for cache in pair:
            cache.put((0, key), 1, bytes([key]))
        for negative in negatives:
            negative.add((0, key), 1)
    for cache in pair + negatives:
        cache.advance(floor)
    keys = [(0, key) for key in batch]
    assert pair[0].lookup_many(keys) == [
        bytes([key]) if hit else MISSING
        for key, (hit, _value) in zip(batch, (pair[1].get(k) for k in keys))
    ]
    assert negatives[0].lookup_many(keys) == [
        None if negatives[1].contains(k) else MISSING for k in keys
    ]
    pair[0].put_many([(0, key) for key in fills], [bytes([key, 1]) for key in fills], 1)
    for key in fills:
        pair[1].put((0, key), 1, bytes([key, 1]))
    negatives[0].add_many([(0, key) for key in fills], 1)
    for key in fills:
        negatives[1].add((0, key), 1)
    for one, other in (pair, negatives):
        assert one.stats() == other.stats()
        assert list(one._entries.items()) == list(other._entries.items())


class ParkedCommit:
    """An engine whose next group commit, once armed, parks before it
    touches the engine: meanwhile its batch is the flushing overlay."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.armed = False
        self.parked = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def begin_block(self, height):
        if self.armed:
            self.armed = False
            self.parked.set()
            assert self.release.wait(timeout=60)
        return self._engine.begin_block(height)


#: Batch tiers: the read cache (0-3), the negative cache (100, 101), the
#: flushing overlay (4, 200), the active overlay (5, 300), duplicates of
#: each, then the engine (6 present, 102 absent) last — a GET fills the
#: caches as it goes, a MULTI_GET after its lookups, so engine keys end
#: the batch for the LRU orders to be comparable.
LADDER = [0, 100, 4, 200, 5, 300, 0, 100, 4, 5, 1, 3, 101, 6, 102]
OVERLAID = {4: 44, 200: 200, 5: 55, 300: 300}


def _cache_view(server):
    return (list(server.cache._entries), list(server.negative._entries))


async def _ask(client, batched: bool, keys):
    if batched:
        return await client.multi_get(keys)
    return [await client.get(key) for key in keys]


def _primary_side(tmp_path, name: str, batched: bool):
    """One twin: the LADDER batch's answers, STATS and LRU orders."""
    engine = ParkedCommit(Cole(str(tmp_path / name), PARAMS))

    async def scenario(server, host, port):
        loop = asyncio.get_running_loop()
        async with ServerClient(host, port) as writer, ServerClient(host, port) as reader, \
                ServerClient(host, port) as late_writer:
            await writer.multi_put([(addr_of(n), value_of(n)) for n in range(8)])
            await writer.flush()
            for n in (0, 1, 2, 3, 100, 101):
                await reader.get(addr_of(n))
            await writer.multi_put([(addr_of(4), value_of(44)), (addr_of(200), value_of(200))])
            engine.armed = True
            flushing = asyncio.ensure_future(writer.flush())
            await loop.run_in_executor(None, engine.parked.wait, 60)
            await late_writer.multi_put(
                [(addr_of(5), value_of(55)), (addr_of(300), value_of(300))]
            )
            answers = await _ask(reader, batched, [addr_of(n) for n in LADDER])
            stats = await reader.stats()
            view = _cache_view(server)
            engine.release.set()
            await flushing
        return answers, stats, view

    with serve(engine, batch_max_puts=10_000, batch_max_delay=60.0) as thread:
        result = asyncio.run(scenario(thread.server, *thread.start()))
    engine.close()
    return result


def _same_ladder(single, batched):
    answers, stats, view = batched
    assert answers == single[0]
    for section in ("cache", "negative_cache", "overlay_hits"):
        assert stats[section] == single[1][section], section
    assert view == single[2]
    return stats


def test_a_multi_get_walks_the_ladder_as_its_gets_do(tmp_path):
    single = _primary_side(tmp_path, "single", batched=False)
    batched = _primary_side(tmp_path, "batched", batched=True)
    assert single[0] == [
        value_of(OVERLAID.get(n, n)) if n < 8 or n in OVERLAID else None for n in LADDER
    ]
    stats = _same_ladder(single, batched)
    assert stats["overlay_hits"] == 6
    assert stats["negative_cache"]["hits"] == 3
    assert stats["cache"]["hits"] == 4
    assert batched[1]["reads"]["pooled"] == 1  # the two engine keys: one trip


def test_a_multi_get_on_a_replica_walks_the_ladder_as_its_gets_do(tmp_path):
    primary = Cole(str(tmp_path / "primary"), PARAMS)
    wal = WriteAheadLog(str(tmp_path / "primary" / "wal"))
    replicas = [Cole(str(tmp_path / name), PARAMS) for name in ("single", "batched")]
    ladder = [0, 100, 1, 0, 100, 3, 101, 1, 6, 102]

    async def scenario(primary_at, replica_at):
        async with ServerClient(*primary_at) as writer:
            await writer.multi_put([(addr_of(n), value_of(n)) for n in range(8)])
            info = await writer.flush()
        sides = []
        for (host, port), server in replica_at:
            async with ServerClient(host, port) as reader:
                while (await reader.root()).height < info.height:
                    await asyncio.sleep(0.02)
                for n in (0, 1, 2, 3, 100, 101):
                    await reader.get(addr_of(n))
                answers = await _ask(reader, len(sides) == 1, [addr_of(n) for n in ladder])
                sides.append((answers, await reader.stats(), _cache_view(server)))
        return sides

    try:
        with ServerThread(
            primary, config=ServerConfig(batch_max_puts=10_000, batch_max_delay=60.0), wal=wal
        ) as pt:
            primary_at = pt.start()
            with ServerThread(replicas[0], replica_of=primary_at) as one, \
                    ServerThread(replicas[1], replica_of=primary_at) as two:
                replica_at = [(one.start(), one.server), (two.start(), two.server)]
                single, batched = asyncio.run(scenario(primary_at, replica_at))
    finally:
        wal.close()
        for engine in [primary] + replicas:
            engine.close()
    assert single[0] == [value_of(n) if n < 8 else None for n in ladder]
    stats = _same_ladder(single, batched)
    assert stats["overlay_hits"] == 0
    assert stats["negative_cache"]["hits"] == 3
