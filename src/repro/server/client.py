"""The asyncio client of the serving layer: one pipelined connection.

A :class:`ServerClient` owns one TCP connection, and it **pipelines**: a
request is one ``transport.write`` plus a future appended to a FIFO —
no lock, no ``drain()``, no waiting for earlier responses — and the
connection's ``data_received`` (it is an asyncio protocol; there is
no reader task) splits each chunk into frames and resolves the futures
in order — valid because the server answers every connection strictly
in request order.  Pipelining removes the per-op network round trip from
the critical path, which is where most of a small op's latency lives.
The same connection also carries the one ``stream`` op
(:meth:`ServerClient.stream`), so it is the only client transport: the
replica applier rides it too.

A :class:`ServerClient` talks to one server — a primary or a read
replica — through its typed methods, and :func:`connect` builds one
from a target.  Callers (loadgen, benchmarks, ``repro query -s``,
examples) hold a ``ServerClient``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import AsyncIterator, Deque, List, Optional, Sequence, Tuple, Union

from repro.common.errors import StorageError
from repro.server import protocol
from repro.server.protocol import Op, OpSpec, RootInfo, parse_address

_OPS = protocol.OPS

#: Unread bodies a streaming connection holds before it stops reading
#: its socket (one receive may overshoot it by what that read carried);
#: it reads again once the consumer has taken them all.
STREAM_WINDOW = 64


class ServerClient:
    """Typed ops over one pipelined connection to one server.

    ``connect()`` / ``close()`` bracket the session (or use ``async
    with``); between them the data plane is ``get / put / get_at /
    multi_get / multi_put / scan / prov`` and the control plane is
    ``root / flush / stats / metrics``.  Each typed method is one
    :meth:`_route` — *one request by its op-table row to the server*.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._conn: Optional[_Connection] = None

    async def connect(self) -> "ServerClient":
        conn = _Connection()
        await conn.open(self.host, self.port)
        self._conn = conn
        return self

    async def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            await conn.close()

    async def __aenter__(self) -> "ServerClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    def _connected(self) -> _Connection:
        if self._conn is None:
            raise StorageError("client is not connected")
        return self._conn

    async def _route(self, spec: OpSpec, *args):
        """Encode, send, decode.  The frame is built — and a batch's
        size validated — before the connection is touched."""
        frame = spec.encode(*args)
        return spec.decode(await self._connected().request(frame))

    def stream(self, frame: bytes) -> AsyncIterator[bytes]:
        """Send one ``stream``-class request and iterate over every body
        it is answered with (:meth:`_Connection.stream`); the connection
        serves nothing else afterwards."""
        return self._connected().stream(frame)

    # -- data plane -----------------------------------------------------------

    async def put(self, addr: bytes, value: bytes) -> int:
        """Buffer a write on the server; returns its target block height."""
        return await self._route(_OPS[Op.PUT], addr, value)

    async def get(self, addr: bytes) -> Optional[bytes]:
        """Latest value of ``addr`` (read-your-writes across all clients)."""
        return await self._route(_OPS[Op.GET], addr)

    async def get_at(self, addr: bytes, blk: int) -> Optional[bytes]:
        """Value of ``addr`` as of block ``blk``."""
        return await self._route(_OPS[Op.GET_AT], addr, blk)

    async def multi_get(self, addrs: Sequence[bytes]) -> List[Optional[bytes]]:
        """Latest values of ``addrs`` in one round trip, positionally
        matched (``None`` per absent address)."""
        return await self._route(_OPS[Op.MULTI_GET], list(addrs))

    async def multi_put(self, items: Sequence[Tuple[bytes, bytes]]) -> int:
        """Write a whole ``(addr, value)`` batch in one round trip;
        returns the single block height the batch will commit at."""
        return await self._route(_OPS[Op.MULTI_PUT], list(items))

    async def prov(
        self, addr: bytes, blk_low: int, blk_high: int
    ) -> Tuple[object, bytes]:
        """Provenance result plus the ``Hstate`` digest it verifies
        against — the proof self-verifies, whichever server answered."""
        return await self._route(_OPS[Op.PROV], addr, blk_low, blk_high)

    async def scan(
        self,
        addr_low: bytes,
        addr_high: bytes,
        *,
        at_blk: Optional[int] = None,
        limit: Optional[int] = None,
        page_size: int = 0,
    ) -> List[Tuple[bytes, int, bytes]]:
        """Key-ordered range scan: live ``(addr, blk, value)`` triples in
        ``[addr_low, addr_high]``, ascending.

        Drives the continuation protocol: each request fetches one
        result page (``page_size``; 0 lets the server pick) and the next
        request resumes from the returned continuation key, so one
        logical scan streams past any single frame.  ``at_blk`` reads
        the historical state as of that block; ``limit`` caps the total
        triples returned.

        Multi-page scans are snapshot-consistent: the server pins every
        page to a committed height and reports it, and continuation
        pages are re-requested at the *first* page's height — writers
        committing between pages cannot tear the reassembled result
        across commit epochs.
        """
        results: List[Tuple[bytes, int, bytes]] = []
        cursor_addr = addr_low
        pin = at_blk
        while True:
            want = page_size
            if limit is not None:
                remaining = limit - len(results)
                if remaining <= 0:
                    return results
                want = min(want, remaining) if want else remaining
            rows, continuation, height = await self._route(
                _OPS[Op.SCAN], cursor_addr, addr_high, pin, want
            )
            results.extend(rows)
            if pin is None:
                pin = height  # later pages stay in this page's snapshot
            if limit is not None and len(results) >= limit:
                return results[:limit]
            if continuation is None:
                return results
            cursor_addr = continuation

    # -- control plane --------------------------------------------------------

    async def root(self) -> RootInfo:
        """Committed state root, commit version, and block height."""
        return await self._route(_OPS[Op.ROOT])

    async def flush(self) -> RootInfo:
        """Force a group commit; returns the new state anchor."""
        return await self._route(_OPS[Op.FLUSH])

    async def stats(self) -> dict:
        """The server's serving statistics (JSON-decoded)."""
        return await self._route(_OPS[Op.STATS])

    async def metrics(self) -> str:
        """The server's Prometheus-style metrics text exposition."""
        return await self._route(_OPS[Op.METRICS])


class _Connection(protocol.FrameProtocol):
    """One TCP connection with FIFO response matching — or, after
    :meth:`stream`, one server-pushed stream of bodies."""

    def __init__(self) -> None:
        super().__init__()
        self._transport: Optional[asyncio.Transport] = None
        self._pending: Deque[asyncio.Future] = deque()
        self._closed = False  # close() was called on this end
        self._lost: Optional[asyncio.Future] = None  # done once the socket is gone
        self._new_future = None  # the loop's create_future
        #: Stream mode: the unread bodies, then the error that ended them.
        self._stream: Optional[asyncio.Queue] = None

    async def open(self, host: str, port: int) -> None:
        loop = asyncio.get_running_loop()
        self._new_future = loop.create_future
        self._lost = loop.create_future()
        await loop.create_connection(lambda: self, host, port)

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        if self._stream is not None:
            self._stream_received(data)
            return
        pending = self._pending
        try:
            for body in self._frames.feed(data):
                if not pending:
                    raise StorageError("unsolicited response frame")
                future = pending.popleft()
                if not future.done():  # its caller may have been cancelled
                    future.set_result(body)
        except StorageError as exc:
            # An oversized length prefix or an answer nobody asked for:
            # positions no longer match requests — fail them all, hang up.
            self._fail_pending(exc)
            self._transport.close()

    def _stream_received(self, data: bytes) -> None:
        stream = self._stream
        try:
            for body in self._frames.feed(data):
                stream.put_nowait(body)
        except StorageError as exc:  # an oversized length prefix
            stream.put_nowait(exc)
            self._transport.close()
            return
        if stream.qsize() >= STREAM_WINDOW:
            self._transport.pause_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._transport = None
        self._lost.set_result(None)
        error = exc or StorageError("connection closed by server")
        self._fail_pending(error)
        if self._stream is not None:
            self._stream.put_nowait(error)

    def _fail_pending(self, exc: BaseException) -> None:
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(exc)

    def _send(self, frame: bytes) -> None:
        if self._closed:
            raise StorageError("connection is closed")
        if self._transport is None:
            # The server hung up: a request sent now would wait for a
            # response nobody is left to send.  Raised as the transport
            # failure it is — what a send on a reset socket raises too.
            raise ConnectionResetError(  # repro-lint: disable=error-taxonomy
                "connection closed by server"
            )
        self._transport.write(frame)

    def request(self, frame: bytes) -> "asyncio.Future[bytes]":
        """Send one frame; the returned future resolves to its response
        body (pipelined: nothing here waits for earlier responses)."""
        # Write, then enqueue, in one synchronous step: the FIFO future
        # queue matches the order frames reached the transport, and a
        # write that raises leaves no orphan future behind.
        self._send(frame)
        future = self._new_future()
        self._pending.append(future)
        return future

    def stream(self, frame: bytes) -> AsyncIterator[bytes]:
        """Send one ``stream``-class frame on a connection with nothing
        in flight; the returned iterator yields every body the server
        answers with, in order, and the error that ends the connection
        ends it.  A stalled consumer holds one :data:`STREAM_WINDOW`; the
        rest waits in the kernel, then in the sender's queue (which a
        primary's hub bounds by evicting the subscriber)."""
        self._stream = asyncio.Queue()
        self._send(frame)
        return self._unread_bodies(self._stream)

    async def _unread_bodies(self, stream: asyncio.Queue) -> AsyncIterator[bytes]:
        while True:
            body = await stream.get()
            if isinstance(body, BaseException):
                raise body
            if stream.empty() and self._transport is not None:
                self._transport.resume_reading()
            yield body

    async def close(self) -> None:
        self._closed = True
        if self._transport is not None:
            self._transport.close()
            self._fail_pending(StorageError("connection is closed"))
            await self._lost


Target = Union[str, Tuple[str, int]]


def _to_addr(target: Target) -> Tuple[str, int]:
    """Accept ``"host:port"`` or ``(host, port)``; return the tuple."""
    if isinstance(target, str):
        return parse_address(target)
    host, port = target
    return host, int(port)


def connect(target: Target) -> ServerClient:
    """A :class:`ServerClient` for ``target`` — a primary, or a replica
    (reads; a write raises :class:`~repro.server.protocol.NotPrimaryError`
    naming the primary).

    Targets are ``"host:port"`` strings or ``(host, port)`` tuples.  The
    returned client is *not yet connected*: use ``async with
    connect(...) as client`` or ``await connect(...).connect()``.
    """
    return ServerClient(*_to_addr(target))
