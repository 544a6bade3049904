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
replica applier and the cluster control calls ride it too.

:class:`ReplicatedClient` is the replica-aware mode: writes go to the
primary (following ``NOT_PRIMARY`` redirects), reads fan out round-robin
across the replica set with the primary as fallback, and
:meth:`ReplicatedClient.refresh_lag` sidelines replicas lagging more
than ``max_lag`` blocks behind the primary.

Every client shape — single server, replica set, cluster — implements
the one :class:`KVClient` interface, and :func:`connect` is the factory
that picks the shape from its arguments.  Callers (loadgen, benchmarks,
``repro query -s``, examples) hold a ``KVClient`` and never special-case
the class behind it.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import AsyncIterator, Deque, List, Optional, Sequence, Tuple, Union

from repro.common.errors import StorageError
from repro.server import protocol
from repro.server.protocol import Op, OpSpec, Referral, RootInfo, parse_address

_OPS = protocol.OPS

#: Unread bodies a streaming connection holds before it stops reading
#: its socket (one receive may overshoot it by what that read carried);
#: it reads again once the consumer has taken them all.
STREAM_WINDOW = 64


class KVClient:
    """The one client interface every serving topology implements.

    ``connect()`` / ``close()`` bracket the session (or use ``async
    with``); between them the data plane is ``get / put / get_at /
    multi_get / multi_put / scan / prov`` and the control plane is
    ``root / flush / stats / metrics``.  The typed methods are written
    once, here, over :meth:`_route` — *one request by its op-table row
    to the server that should answer it* — so subclasses differ only in
    routing, never in semantics.
    """

    async def connect(self) -> "KVClient":
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError

    async def _route(self, spec: OpSpec, *args):
        """Send one ``spec`` request built from ``args`` to the server
        this topology picks for it; returns the decoded response."""
        raise NotImplementedError

    async def __aenter__(self):
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

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
        against — the proof self-verifies, whichever node served it."""
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
            # failure it is — what a send on a reset socket raises too —
            # so the cluster and replica clients reconnect and retry.
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


class ServerClient(KVClient):
    """Typed ops over one pipelined connection."""

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


class ReplicatedClient(KVClient):
    """Reads fanned across replicas, writes routed to the primary.

    ``replicas`` lists read-serving replica addresses; reads round-robin
    over the healthy ones (plus the primary when ``read_primary`` is
    true, or whenever no replica is usable) and retry once against the
    primary when the chosen replica fails mid-request — replica reads
    are idempotent, so the retry is safe.  A write answered with
    ``NOT_PRIMARY`` (the configured "primary" was actually a replica)
    reconnects to the address the rejection carried and retries once.
    """

    def __init__(
        self,
        primary: Tuple[str, int],
        replicas: Sequence[Tuple[str, int]] = (),
        max_lag: Optional[int] = None,
        read_primary: bool = True,
    ) -> None:
        self._primary_addr = primary
        self._replica_addrs = list(replicas)
        self.max_lag = max_lag
        self.read_primary = read_primary
        self._primary: Optional[ServerClient] = None
        self._replicas: List[ServerClient] = []
        self._lagging: set = set()  # indexes sidelined by refresh_lag
        self._next = 0
        self.redirects = 0
        self.read_fallbacks = 0

    @property
    def primary(self) -> ServerClient:
        if self._primary is None:
            raise StorageError("client is not connected")
        return self._primary

    @property
    def replicas(self) -> List[ServerClient]:
        return list(self._replicas)

    async def connect(self) -> "ReplicatedClient":
        """Open the primary and every replica (all-or-nothing)."""
        primary = ServerClient(*self._primary_addr)
        opened: List[ServerClient] = []
        try:
            await primary.connect()
            for host, port in self._replica_addrs:
                replica = ServerClient(host, port)
                await replica.connect()
                opened.append(replica)
        except BaseException:
            for client in opened:
                await client.close()
            await primary.close()
            raise
        self._primary = primary
        self._replicas = opened
        return self

    async def close(self) -> None:
        clients, self._replicas = self._replicas, []
        for client in clients:
            await client.close()
        if self._primary is not None:
            primary, self._primary = self._primary, None
            await primary.close()

    # -- routing --------------------------------------------------------------

    async def _route(self, spec: OpSpec, *args):
        """``read`` ops fan across the replicas; everything else (writes
        and the control plane) is the primary's to answer."""
        if spec.kind == protocol.READ:
            return await self._on_replica(ServerClient._route, spec, *args)
        return await self._on_primary(ServerClient._route, spec, *args)

    def _read_targets(self) -> List[ServerClient]:
        """Round-robin order for one read: chosen node first, primary last."""
        pool: List[ServerClient] = [
            replica
            for index, replica in enumerate(self._replicas)
            if index not in self._lagging
        ]
        if self.read_primary or not pool:
            pool.append(self.primary)
        start = self._next % len(pool)
        self._next += 1
        ordered = pool[start:] + pool[:start]
        if self._primary is not None and self._primary not in ordered:
            ordered.append(self._primary)  # last-resort fallback
        return ordered

    async def _on_replica(self, call, *args, **kwargs):
        """``call(node, ...)`` on the next replica, falling back node by
        node to the primary — replica reads are idempotent, so the
        retry is safe."""
        targets = self._read_targets()
        for index, target in enumerate(targets):
            try:
                return await call(target, *args, **kwargs)
            except (StorageError, ConnectionError, OSError):
                # NotPrimaryError cannot happen on reads; anything else
                # (replica down, mid-stream disconnect) falls through to
                # the next target, ending at the primary.
                if index == len(targets) - 1:
                    raise
                self.read_fallbacks += 1

    async def _on_primary(self, call, *args):
        """``call(primary, ...)``, following one referral."""
        try:
            return await call(self.primary, *args)
        except Referral as exc:
            # The configured primary is a replica (NOT_PRIMARY) or the
            # shard has moved (MOVED): either way the rejection names
            # the server that will accept the write — follow it.
            self.redirects += 1
            redirected = await ServerClient(*parse_address(exc.address)).connect()
            stale, self._primary = self._primary, redirected
            if stale is not None:
                await stale.close()
            return await call(self.primary, *args)

    async def scan(
        self, addr_low: bytes, addr_high: bytes, **options
    ) -> List[Tuple[bytes, int, bytes]]:
        """Range scan from any replica (primary fallback); ``options``
        as in :meth:`KVClient.scan`.

        The whole paged scan runs against one chosen node: pages are
        snapshot-pinned to the first page's height, and a different
        replica might not have applied that height yet — it would
        silently serve an incomplete view of the pinned snapshot.
        """
        return await self._on_replica(
            ServerClient.scan, addr_low, addr_high, **options
        )

    # -- replica health -------------------------------------------------------

    async def refresh_lag(self) -> List[int]:
        """Re-measure replica lag; sideline replicas beyond ``max_lag``.

        Returns the lag (in blocks) per replica.  With ``max_lag`` unset
        this is measurement only — no replica is sidelined.
        """
        primary_height = (await self.root()).height
        lags: List[int] = []
        lagging: set = set()
        for index, replica in enumerate(self._replicas):
            try:
                height = (await replica.root()).height
                lag = max(0, primary_height - height)
            except (StorageError, ConnectionError, OSError):
                lag = -1  # unreachable counts as infinitely behind
            lags.append(lag)
            if self.max_lag is not None and (lag < 0 or lag > self.max_lag):
                lagging.add(index)
        self._lagging = lagging
        return lags


Target = Union[str, Tuple[str, int]]


def _to_addr(target: Target) -> Tuple[str, int]:
    """Accept ``"host:port"`` or ``(host, port)``; return the tuple."""
    if isinstance(target, str):
        return parse_address(target)
    host, port = target
    return host, int(port)


def connect(
    target: Optional[Target] = None,
    *,
    replicas: Sequence[Target] = (),
    manifest: object = None,
    manifest_file: Optional[str] = None,
    seeds: Sequence[Target] = (),
    max_lag: Optional[int] = None,
    read_primary: bool = True,
) -> KVClient:
    """Build the right :class:`KVClient` for the serving topology.

    The factory — not the caller — picks the client class:

    * cluster arguments (``manifest``, ``manifest_file``, or ``seeds``)
      select the manifest-routed ``ClusterClient``;
    * ``replicas`` (with ``target`` as the primary) selects
      :class:`ReplicatedClient`;
    * a bare ``target`` selects the single-server :class:`ServerClient`.

    Targets are ``"host:port"`` strings or ``(host, port)`` tuples.  The
    returned client is *not yet connected*: use ``async with
    connect(...) as client`` or ``await connect(...).connect()``.
    """
    cluster_args = manifest is not None or manifest_file or seeds
    if cluster_args:
        if target is not None or replicas:
            raise StorageError(
                "connect(): cluster arguments (manifest/manifest_file/seeds) "
                "are exclusive with target/replicas"
            )
        # Imported lazily: repro.cluster depends on this module.
        from repro.cluster.client import ClusterClient

        seed_addrs = tuple(
            seed if isinstance(seed, str) else "%s:%d" % _to_addr(seed)
            for seed in seeds
        )
        return ClusterClient(
            manifest=manifest, manifest_file=manifest_file, seeds=seed_addrs
        )
    if target is None:
        raise StorageError("connect() needs a target or cluster arguments")
    if replicas:
        return ReplicatedClient(
            _to_addr(target),
            [_to_addr(replica) for replica in replicas],
            max_lag=max_lag,
            read_primary=read_primary,
        )
    return ServerClient(*_to_addr(target))
