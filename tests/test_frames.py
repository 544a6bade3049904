"""Frames, not streams: both ends of the wire are asyncio protocols.

What the transport promises, tested at its seams:

* the splitter (``protocol.FrameBuffer``) yields the same bodies for any
  chunking of a frame stream — on its own, under the server's
  ``Connection.data_received`` and under the client's;
* answers leave in request order whether a handler finishes inline
  (cached GET) or suspends (PUT awaiting the group fsync, a pooled
  MULTI_GET);
* a peer that pipelines and never reads is held at the transport's
  high-water mark plus one answer, alone;
* the client's stream mode (the replica's subscription) yields every
  body in order for any chunking, stops reading its socket once one
  window is unread, and ends with a taxonomy error when the connection
  does; the primary's hub evicts the subscriber that stalls;
* every step of one request runs in one ``contextvars.Context``;
* a raw-stream peer (``raw_frames.read_frame``) still talks to the
  server, the client turns a hostile length prefix, a hang-up and a
  ``close()`` with a request in flight into taxonomy errors, and nothing
  in ``repro`` opens an asyncio stream.
"""

import ast
import asyncio
import contextvars
import gc
import pathlib
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.replication.hub import ReplicationHub
from repro.server import ColeServer, ServerClient, ServerConfig, ServerThread, protocol
from repro.server.client import STREAM_WINDOW, _Connection
from repro.server.protocol import MAX_FRAME, Op
from repro.server.server import Connection, _WalSyncer
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


def _chunks(stream: bytes, cuts) -> list:
    edges = [0] + sorted(set(cuts)) + [len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if a < b]


def _split(stream: bytes) -> list:
    return protocol.FrameBuffer().feed(stream)


def _in_loop_server(tmp_path, scenario, wal_sync="batch"):
    """Run ``scenario(server, host, port)`` with a ColeServer on the
    scenario's own loop, so the test can look at the server between
    awaits.  ``wal_sync=None`` serves without a WAL (PUT acks inline)."""
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    wal = None
    if wal_sync is not None:
        wal = WriteAheadLog(str(tmp_path / "wal"), sync_policy=wal_sync)

    async def main():
        server = ColeServer(
            engine,
            config=ServerConfig(batch_max_puts=1000, batch_max_delay=60.0),
            wal=wal,
        )
        host, port = await server.start()
        try:
            await asyncio.wait_for(scenario(server, host, port), 60)
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    finally:
        if wal is not None:
            wal.close()
        engine.close()


# =============================================================================
# the splitter
# =============================================================================

bodies_strategy = st.lists(st.binary(max_size=48), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(bodies=bodies_strategy, data=st.data())
def test_any_chunking_of_a_frame_stream_yields_the_same_bodies(bodies, data):
    stream = b"".join(protocol.encode_frame(body) for body in bodies)
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=24))
    for chunks in (
        _chunks(stream, cuts),
        _chunks(stream, range(len(stream))),  # one byte at a time
        _chunks(stream, [2]),  # a cut inside the first 4-byte prefix
        [stream],  # every frame in one chunk
    ):
        splitter, got = protocol.FrameBuffer(), []
        for chunk in chunks:
            got.extend(splitter.feed(chunk))
        assert got == bodies


def test_a_large_frame_arriving_in_small_chunks_is_reassembled():
    body = bytes(range(256)) * 4096  # 1 MiB in 256-byte chunks
    stream = protocol.encode_frame(body) + protocol.encode_frame(b"tail")
    splitter, got = protocol.FrameBuffer(), []
    for chunk in _chunks(stream, range(0, len(stream), 256)):
        got.extend(splitter.feed(chunk))
    assert got == [body, b"tail"]


def test_a_length_prefix_above_max_frame_is_a_storage_error():
    splitter = protocol.FrameBuffer()
    assert splitter.feed(protocol.encode_frame(b"ok")) == [b"ok"]
    with pytest.raises(StorageError, match="MAX_FRAME"):
        splitter.feed((MAX_FRAME + 1).to_bytes(4, "big") + b"x")


class _FakeTransport:
    """Collects what a protocol writes; never pushes back."""

    def __init__(self):
        self.written = bytearray()
        self.closed = False

    def get_write_buffer_limits(self):
        return (16 * 1024, 64 * 1024)

    def get_write_buffer_size(self):
        return 0

    def write(self, data):
        self.written += data

    def pause_reading(self):
        raise AssertionError("nothing here should pause reading")

    def resume_reading(self):
        pass

    def close(self):
        self.closed = True


requests_strategy = st.lists(
    st.one_of(
        st.tuples(st.just(Op.GET), st.tuples(st.binary(max_size=24))),
        st.tuples(
            st.just(Op.MULTI_GET),
            st.tuples(st.lists(st.binary(max_size=24), min_size=1, max_size=6)),
        ),
        st.tuples(st.just(Op.PUT), st.tuples(st.binary(max_size=24), st.binary(max_size=24))),
        st.tuples(st.just(Op.ROOT), st.just(())),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=100, deadline=None)
@given(requests=requests_strategy, data=st.data())
@example(requests=[(Op.GET, (b"k",))] * 3, data=None)
def test_the_server_answers_the_same_requests_for_any_chunking(requests, data):
    """Every request is echoed back inline: N frames in, however cut,
    are N answers out, in order."""
    stream = b"".join(protocol.OPS[op].encode(*args) for op, args in requests)
    cuts = range(len(stream)) if data is None else data.draw(
        st.lists(st.integers(0, len(stream)), max_size=24)
    )

    async def echo(op, args):
        return protocol.encode_blob_response(repr((op, args)).encode())

    conn, transport = Connection(echo, set(), set()), _FakeTransport()
    conn.connection_made(transport)
    for chunk in _chunks(stream, cuts):
        conn.data_received(chunk)
    assert [protocol.decode_blob_response(body) for body in _split(bytes(transport.written))] == [
        repr(request).encode() for request in requests
    ]
    assert not transport.closed


@settings(max_examples=20, deadline=None)
@given(answers=st.lists(st.one_of(st.none(), st.binary(max_size=48)), min_size=1, max_size=8),
       data=st.data())
def test_the_client_resolves_the_same_answers_for_any_chunking(answers, data):
    """A fake server waits for the whole pipeline, then dribbles the
    answer stream out in arbitrary pieces."""
    stream = b"".join(protocol.encode_value_response(answer) for answer in answers)
    pieces = _chunks(stream, data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))

    async def scenario():
        async def dribble(reader, writer):
            for _ in answers:
                await read_frame(reader)
            for piece in pieces:
                writer.write(piece)
                await writer.drain()
                await asyncio.sleep(0)
            await reader.read()  # until the client hangs up
            writer.close()

        listener = await asyncio.start_server(dribble, "127.0.0.1", 0)
        host, port = listener.sockets[0].getsockname()[:2]
        try:
            async with ServerClient(host, port) as client:
                got = await asyncio.wait_for(
                    asyncio.gather(*(client.get(addr_of(n)) for n in range(len(answers)))), 10
                )
        finally:
            listener.close()
            await listener.wait_closed()
        assert got == answers

    asyncio.run(scenario())


def test_frames_larger_than_the_receive_buffer_cross_both_ends(tmp_path):
    """A MAX_MULTI_BATCH request (~200 KB) and its answer (~120 KB) both
    span several fills of a connection's 64 KiB receive buffer."""
    items = [(addr_of(n), value_of(n)) for n in range(protocol.MAX_MULTI_BATCH)]

    async def scenario(server, host, port):
        async with ServerClient(host, port) as client:
            assert await client.multi_put(items) == 1
            assert await client.multi_get([addr for addr, _ in items]) == [
                value for _, value in items
            ]

    _in_loop_server(tmp_path, scenario, wal_sync=None)


# =============================================================================
# ordering
# =============================================================================

def test_one_pipeline_of_suspending_and_inline_requests_is_answered_in_order(tmp_path):
    """PUT (suspends on the group fsync) -> GET (cached: inline) ->
    MULTI_GET (leftovers go to the pool: suspends) -> GET, written as one
    chunk and read back with the stream reader a parent-commit client
    uses: four answers, in request order."""

    async def scenario(server, host, port):
        async with ServerClient(host, port) as client:
            await client.multi_put([(addr_of(n), value_of(n)) for n in range(1, 9)])
            await client.flush()
            assert await client.get(addr_of(1)) == value_of(1)  # now cached
        pooled_before = server.reads["pooled"]
        syncs_before = server.wal.stats()["syncs"]
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                protocol.encode_put(addr_of(20), value_of(20))
                + protocol.encode_get(addr_of(1))
                + protocol.encode_multi_get([addr_of(2), addr_of(3), addr_of(99)])
                + protocol.encode_get(addr_of(20))
            )
            bodies = [await read_frame(reader) for _ in range(4)]
        finally:
            writer.close()
            await writer.wait_closed()
        assert protocol.decode_height_response(bodies[0]) >= 2
        assert protocol.decode_value_response(bodies[1]) == value_of(1)
        assert protocol.decode_multi_get_response(bodies[2]) == [
            value_of(2), value_of(3), None,
        ]
        assert protocol.decode_value_response(bodies[3]) == value_of(20)
        # The PUT did wait for an fsync and the MULTI_GET did take the pool.
        assert server.wal.stats()["syncs"] > syncs_before
        assert server.reads["pooled"] == pooled_before + 1
        assert not server._conn_tasks  # nothing left suspended

    _in_loop_server(tmp_path, scenario)


def test_a_peer_that_half_closes_still_gets_its_suspended_answer(tmp_path):
    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(protocol.encode_put(addr_of(1), value_of(1)))
            writer.write_eof()
            assert protocol.decode_height_response(await read_frame(reader)) == 1
            assert await read_frame(reader) is None  # then the server closes
        finally:
            writer.close()
            await writer.wait_closed()

    _in_loop_server(tmp_path, scenario)


# =============================================================================
# backpressure
# =============================================================================

def test_a_peer_that_never_reads_is_held_at_the_high_water_mark_alone(tmp_path):
    """2 000 MULTI_GET(256) frames from a socket that does not read: the
    server stops answering (and reading) that socket with at most the
    transport's high-water mark plus one answer buffered, keeps serving
    everyone else, and delivers all 2 000 answers in order once the peer
    reads."""
    keys = [addr_of(n) for n in range(256)]
    stored = {addr_of(n): value_of(n) for n in range(256)}
    total = 2000

    def batch(index):
        return keys[index % 256:] + keys[:index % 256]

    async def scenario(server, host, port):
        loop = asyncio.get_running_loop()
        async with ServerClient(host, port) as client:
            await client.multi_put(list(stored.items()))
            await client.flush()
            await client.multi_get(keys)  # cached: every answer below is inline
        one_answer = len(
            protocol.encode_multi_get_response([stored[key] for key in keys])
        )
        raw = socket.socket()
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        raw.setblocking(False)
        await loop.sock_connect(raw, (host, port))
        sender = loop.create_task(
            loop.sock_sendall(
                raw, b"".join(protocol.encode_multi_get(batch(i)) for i in range(total))
            )
        )
        try:
            while not server._conns:
                await asyncio.sleep(0.001)
            (conn,) = server._conns
            transport = conn._transport
            bound = transport.get_write_buffer_limits()[1] + one_answer
            # The kernel's socket buffers fill, then the transport's, then
            # the server stops answering and reading this socket.
            while transport.is_reading():
                await asyncio.sleep(0.005)
            answered = server.op_counts["multi_get"]
            assert 0 < transport.get_write_buffer_size() <= bound
            async with ServerClient(host, port) as other:
                assert await other.get(keys[7]) == stored[keys[7]]
                assert await other.multi_get(keys[:3]) == [stored[key] for key in keys[:3]]
            await asyncio.sleep(0.05)
            assert not transport.is_reading()
            assert server.op_counts["multi_get"] == answered + 1  # only `other`'s
            assert answered < total
            # Now read: everything drains, in order, never above the bound.
            splitter, bodies, peak = protocol.FrameBuffer(), [], 0
            while len(bodies) < total:
                bodies.extend(splitter.feed(await loop.sock_recv(raw, 1 << 16)))
                peak = max(peak, transport.get_write_buffer_size())
            assert peak <= bound
            await asyncio.wait_for(sender, 10)
        finally:
            sender.cancel()
            raw.close()
        for index, body in enumerate(bodies):
            assert protocol.decode_multi_get_response(body) == [
                stored[key] for key in batch(index)
            ], f"answer {index} out of order"

    _in_loop_server(tmp_path, scenario, wal_sync=None)


# =============================================================================
# the client's stream mode (a replica's subscription)
# =============================================================================

class _ReadingTransport(_FakeTransport):
    """A fake transport that records whether its protocol reads."""

    def __init__(self):
        super().__init__()
        self.reading = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def _subscribed():
    """A client connection on a fake transport, just subscribed:
    ``(connection, transport, the stream's bodies)``."""
    conn, transport = _Connection(), _ReadingTransport()
    conn._lost = asyncio.get_running_loop().create_future()
    conn.connection_made(transport)
    bodies = conn.stream(protocol.encode_repl_subscribe(0))
    assert bytes(transport.written) == protocol.encode_repl_subscribe(0)
    return conn, transport, bodies


@settings(max_examples=100, deadline=None)
@given(records=st.lists(st.binary(max_size=48), max_size=12), data=st.data())
def test_a_stream_yields_the_handshake_then_every_record_for_any_chunking(records, data):
    wire = protocol.encode_repl_handshake(7) + b"".join(
        map(protocol.encode_repl_record, records)
    )
    pieces = _chunks(wire, data.draw(st.lists(st.integers(0, len(wire)), max_size=24)))

    async def scenario():
        conn, _transport, bodies = _subscribed()
        for piece in pieces:
            conn.data_received(piece)
        got = [await bodies.__anext__() for _ in range(len(records) + 1)]
        assert protocol.decode_repl_handshake(got[0]) == 7
        assert [protocol.decode_repl_record(body) for body in got[1:]] == records

    asyncio.run(scenario())


def test_a_stalled_stream_holds_one_window_and_reads_again_once_drained():
    record = protocol.encode_repl_record(b"record")

    async def scenario():
        conn, transport, bodies = _subscribed()
        for _ in range(STREAM_WINDOW - 1):
            conn.data_received(record)
        assert transport.reading
        conn.data_received(record)  # the window is full: stop reading
        assert not transport.reading
        for _ in range(STREAM_WINDOW - 1):
            await bodies.__anext__()
        assert not transport.reading  # paused until every body is taken
        await bodies.__anext__()
        assert transport.reading

    asyncio.run(scenario())


@pytest.mark.parametrize("ending", ["hang-up", "hostile-prefix"])
def test_a_stream_whose_connection_ends_raises_instead_of_hanging(ending):
    async def scenario():
        conn, transport, bodies = _subscribed()
        conn.data_received(protocol.encode_repl_handshake(3))
        assert protocol.decode_repl_handshake(await bodies.__anext__()) == 3
        waiting = asyncio.ensure_future(bodies.__anext__())
        await asyncio.sleep(0)
        assert not waiting.done()
        if ending == "hang-up":  # half a record, then the socket is gone
            conn.data_received(protocol.encode_repl_record(b"record")[:6])
            conn.connection_lost(None)
        else:
            conn.data_received((MAX_FRAME + 1).to_bytes(4, "big"))
            assert transport.closed
        with pytest.raises(StorageError, match="closed by server|MAX_FRAME"):
            await asyncio.wait_for(waiting, 5)

    asyncio.run(scenario())


def test_the_hub_evicts_a_stalled_subscriber_and_keeps_a_draining_one():
    """What the window relies on: the primary's queue for a subscriber
    that stopped reading is bounded — past ``max_queue_batches`` the
    stream ends (the sentinel) and the queue is dropped."""

    def take_all(queue):
        taken = []
        while not queue.empty():
            batch = queue.get_nowait()
            taken.append(None if batch is None else batch[0])
        return taken

    async def scenario():
        hub = ReplicationHub(engine=None, wal=None, max_queue_batches=3)
        stalled, draining = hub.register(), hub.register()
        drained = []
        for height in range(1, 7):
            hub.publish(height, [(b"k", b"v")], bytes(16))
            drained.extend(take_all(draining))
        assert take_all(stalled) == [1, 2, 3, None]
        assert hub.subscribers_evicted == 1
        assert hub.subscribers == 1 and draining in hub._queues
        assert drained == [1, 2, 3, 4, 5, 6]

    asyncio.run(scenario())


# =============================================================================
# the Context rule
# =============================================================================

def test_every_step_of_one_request_runs_in_one_context(tmp_path, monkeypatch):
    """Wrappers that set a ContextVar on entry and reset it on exit —
    what ``benchmarks/perf/spans.py`` installs — around ``_dispatch``
    (stepped inline, resumed in a task) and ``_WalSyncer.durable`` (entered
    inline, left after the fsync): ``reset`` raises ``ValueError`` when
    the token comes from another Context."""
    marker = contextvars.ContextVar("marker", default=None)
    seen = []

    def set_and_reset(fn, label):
        async def wrapper(*args, **kwargs):
            entered_with = marker.get()
            token = marker.set(label)
            try:
                return await fn(*args, **kwargs)
            finally:
                seen.append((label, entered_with, marker.get()))
                marker.reset(token)

        return wrapper

    monkeypatch.setattr(
        ColeServer, "_dispatch", set_and_reset(ColeServer._dispatch, "dispatch")
    )
    monkeypatch.setattr(
        _WalSyncer, "durable", set_and_reset(_WalSyncer.durable, "durable")
    )
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    wal = WriteAheadLog(str(tmp_path / "wal"), sync_policy="batch")

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            assert await client.get(addr_of(1)) is None  # inline
            assert await client.put(addr_of(1), value_of(1)) == 1  # suspends
            assert (await client.flush()).height == 1  # suspends
            assert await client.get(addr_of(1)) == value_of(1)

    with ServerThread(engine, config=ServerConfig(), wal=wal) as thread:
        asyncio.run(scenario(*thread.start()))
    wal.close()
    engine.close()
    # Each wrapper left with its own value still set, the fsync wait
    # nested inside its PUT's dispatch, and every request began clean.
    assert seen == [
        ("dispatch", None, "dispatch"),
        ("durable", "dispatch", "durable"),
        ("dispatch", None, "dispatch"),
        ("dispatch", None, "dispatch"),
        ("dispatch", None, "dispatch"),
    ]


# =============================================================================
# the client's failure taxonomy
# =============================================================================

async def _fake_server(handler):
    listener = await asyncio.start_server(handler, "127.0.0.1", 0)
    return listener, listener.sockets[0].getsockname()[:2]


def test_the_client_rejects_a_response_prefix_above_max_frame_and_hangs_up():
    async def scenario():
        hung_up = asyncio.Event()

        async def hostile(reader, writer):
            await read_frame(reader)
            writer.write((MAX_FRAME + 1).to_bytes(4, "big"))
            await writer.drain()
            if await reader.read() == b"":
                hung_up.set()
            writer.close()

        listener, (host, port) = await _fake_server(hostile)
        try:
            async with ServerClient(host, port) as client:
                with pytest.raises(StorageError, match="MAX_FRAME"):
                    await asyncio.wait_for(client.get(addr_of(1)), 5)
                await asyncio.wait_for(hung_up.wait(), 5)
                with pytest.raises((StorageError, ConnectionError)):
                    await asyncio.wait_for(client.get(addr_of(1)), 5)
        finally:
            listener.close()
            await listener.wait_closed()

    asyncio.run(scenario())


def test_close_with_a_request_in_flight_fails_it_once_and_logs_nothing():
    async def scenario():
        async def mute(reader, writer):
            await reader.read()  # never answers; returns when the client leaves
            writer.close()

        complaints = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: complaints.append(context)
        )
        listener, (host, port) = await _fake_server(mute)
        try:
            client = await ServerClient(host, port).connect()
            in_flight = asyncio.ensure_future(client.get(addr_of(1)))
            await asyncio.sleep(0.05)
            assert not in_flight.done()
            await client.close()
            with pytest.raises(StorageError, match="closed"):
                await asyncio.wait_for(in_flight, 5)
            with pytest.raises(StorageError):
                await client.get(addr_of(1))
        finally:
            listener.close()
            await listener.wait_closed()
        del in_flight
        gc.collect()  # "exception was never retrieved" is logged from __del__
        await asyncio.sleep(0)
        assert complaints == []

    asyncio.run(scenario())


# =============================================================================
# one client transport
# =============================================================================

STREAM_APIS = {"open_connection", "start_server", "StreamReader"}


def test_nothing_in_the_package_opens_an_asyncio_stream():
    """Every peer reads frames through a ``FrameProtocol`` connection:
    no module under ``repro`` calls ``asyncio.open_connection`` or
    ``asyncio.start_server``, or builds an ``asyncio.StreamReader``."""
    found = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in STREAM_APIS
                and isinstance(node.value, ast.Name)
                and node.value.id == "asyncio"
            ):
                found.append(f"{path.name}:{node.lineno} asyncio.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "asyncio":
                found.extend(
                    f"{path.name}:{node.lineno} from asyncio import {alias.name}"
                    for alias in node.names
                    if alias.name in STREAM_APIS
                )
    assert found == []
