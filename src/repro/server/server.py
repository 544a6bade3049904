"""The asyncio TCP server fronting a COLE engine.

One :class:`ColeServer` owns one engine — a single
:class:`~repro.core.storage.Cole` or a sharded
:class:`~repro.sharding.engine.ShardedCole` — and serves the
length-prefixed binary protocol of :mod:`repro.server.protocol` to any
number of concurrent connections.

Request flow:

* **PUT** is acknowledged as soon as it lands in the
  :class:`~repro.server.batcher.WriteBatcher`; group commit folds many
  clients' writes into one block.
* **GET / GET_AT** consult, in order: the batcher overlay (buffered
  writes, read-your-writes for everyone), the
  :class:`~repro.server.cache.VersionedReadCache` (exact: each commit
  refreshes the entries of the addresses it wrote), and finally the
  engine itself — **on the event loop**, through its non-blocking read
  (``get(addr, wait=False)``: a walk of the published ``StoreView``, no
  gate), taking the thread pool only when L0 is mid-insert.
* **PROV** first forces a group commit so the proof anchors to a
  committed ``Hstate``, then runs the engine's anchored provenance query.
* **SCAN** snapshots at a committed height: an un-pinned (latest)
  request first forces a group commit so acked-but-buffered writes are
  in the engine (merging the overlay into an ordered stream would
  re-create the ad-hoc read paths the cursor layer replaced), is pinned
  to the resulting committed height, and answers one result page from
  the engine's cursor-based ``scan`` with a continuation key when the
  range has more; pinned requests (explicit ``at_blk``, continuation
  pages) skip the flush — the open batch cannot commit at a height they
  can see.  Scans bypass the
  :class:`~repro.server.cache.VersionedReadCache` entirely: the cache is
  exact-key, and a range result is invalidated by *any* write in the
  range, which a per-key refresh cannot express.
* **ROOT / STATS / FLUSH** are control-plane ops.
* **REPL_SUBSCRIBE** (WAL-enabled primaries only) turns the connection
  into a replication stream: catch-up from the on-disk WAL, then live
  batches from the :class:`~repro.replication.ReplicationHub`.

**Replica mode** (``replica_of=(host, port)``): the server runs no write
batcher and no WAL of its own — a :class:`~repro.replication.ReplicaApplier`
task tails the primary's stream and applies each commit through the
engine, while GET / GET_AT / PROV / ROOT / STATS serve as usual and
PUT / FLUSH are rejected with ``NOT_PRIMARY`` carrying the primary's
address.  Applied commits reconcile the caches exactly as a local group
commit would, so the read cache stays exact.

Each connection is a :class:`Connection` — an asyncio protocol, not
a stream and a task: ``data_received`` splits the chunk into frames and
steps :meth:`ColeServer._dispatch` inline, so a request whose handler
never suspends (a cache hit, an on-view GET / GET_AT, a PUT without a
WAL) is answered before ``data_received`` returns.  A handler that does
suspend (a PUT awaiting its tick's group fsync, pooled MULTI_GET
leftovers, SCAN, PROV, FLUSH, STATS) continues as a task while the
connection's later frames queue behind it: answers leave strictly in
request order, so clients may pipeline.  Batched and ranged engine work
(MULTI_GET leftovers, SCAN, PROV, commits) runs on a small thread pool;
engine reads hold a view, not the :class:`~repro.common.gate.CommitGate`
(the writer mutex), and never wait for a commit; the group fsync runs on
the loop too while that measures cheaper than handing it off
(:class:`_WalSyncer`).
DESIGN.md "Frames, not streams" has the rules.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import pickle
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Set, Tuple

from repro.common.errors import StorageError
from repro.core.storage import WOULD_BLOCK
from repro.obs import MetricsRegistry
from repro.server import protocol
from repro.server.batcher import MISSING, WriteBatcher
from repro.server.cache import NegativeLookupCache, VersionedReadCache
from repro.server.eventloop import LoopThread
from repro.server.protocol import Op, RootInfo

#: Opcode -> STATS/metrics label (the op table's ``name`` column), shared
#: by the op counters and the per-op latency histograms.
OP_NAMES = {op: spec.name for op, spec in protocol.OPS.items()}

#: The counters and gauges of ``Op.METRICS``, each read off one STATS
#: snapshot: ``(metric, kind, help, STATS path, labels)``.  A ``*`` path
#: segment fans out over that dict's keys, each key filling the label
#: whose value is ``*``; a path a role's STATS lacks exports nothing.
#: (Histograms are live in the registry instead.)
METRICS_TABLE = (
    ("repro_ops_total", "counter", "Requests served by opcode", "ops.*", {"op": "*"}),
    ("repro_connections_total", "counter", "Connections accepted", "connections_total", {}),
    ("repro_overlay_hits_total", "counter", "Reads answered by the write overlay",
     "overlay_hits", {}),
    ("repro_commit_version", "gauge", "Commit version", "version", {}),
    ("repro_engine_reads_total", "counter", "Engine point reads by path", "reads.*", {"path": "*"}),
    ("repro_cache_refreshed_total", "counter", "Cache entries updated by commits",
     "cache.refreshed", {}),
    ("repro_committed_height", "gauge", "Last committed block height", "committed_height", {}),
    ("repro_open_height", "gauge", "Height of the open batch", "open_height", {}),
    ("repro_buffered_puts", "gauge", "Puts buffered in the open batch", "buffered_puts", {}),
    ("repro_commits_total", "counter", "Group commits", "batcher.commits", {}),
    ("repro_batched_puts_total", "counter", "Puts committed through the batcher",
     "batcher.batched_puts", {}),
    ("repro_cache_lookups_total", "counter", "Cache lookups", "cache.lookups", {"cache": "read"}),
    ("repro_cache_hits_total", "counter", "Cache hits", "cache.hits", {"cache": "read"}),
    ("repro_cache_hit_rate", "gauge", "Cache hit rate", "cache.hit_rate", {"cache": "read"}),
    ("repro_cache_entries", "gauge", "Cache occupancy", "cache.entries", {"cache": "read"}),
    ("repro_cache_lookups_total", "counter", "Cache lookups",
     "negative_cache.lookups", {"cache": "negative"}),
    ("repro_cache_hits_total", "counter", "Cache hits",
     "negative_cache.hits", {"cache": "negative"}),
    ("repro_cache_hit_rate", "gauge", "Cache hit rate",
     "negative_cache.hit_rate", {"cache": "negative"}),
    ("repro_cache_entries", "gauge", "Cache occupancy",
     "negative_cache.entries", {"cache": "negative"}),
    ("repro_cache_lookups_total", "counter", "Cache lookups",
     "io.page_cache.lookups", {"cache": "page"}),
    ("repro_cache_hits_total", "counter", "Cache hits", "io.page_cache.hits", {"cache": "page"}),
    ("repro_cache_hit_rate", "gauge", "Cache hit rate",
     "io.page_cache.hit_rate", {"cache": "page"}),
    ("repro_engine_puts_total", "counter", "Puts applied by the engine", "engine.puts_total", {}),
    ("repro_engine_storage_bytes", "gauge", "Engine on-disk footprint", "engine.storage_bytes", {}),
    ("repro_engine_disk_levels", "gauge", "Populated disk levels", "engine.disk_levels", {}),
    ("repro_engine_shards", "gauge", "Engine shards", "engine.shards", {}),
    ("repro_page_reads_total", "counter", "Pages read by file category",
     "io.categories.*.reads", {"category": "*"}),
    ("repro_page_writes_total", "counter", "Pages written by file category",
     "io.categories.*.writes", {"category": "*"}),
    ("repro_wal_syncs_total", "counter", "WAL sync() calls", "wal.syncs", {}),
    ("repro_wal_records_appended_total", "counter", "WAL records appended",
     "wal.records_appended", {}),
    ("repro_wal_bytes_appended_total", "counter", "WAL bytes appended", "wal.bytes_appended", {}),
    ("repro_wal_segments", "gauge", "Live WAL segments", "wal.segments", {}),
    ("repro_wal_synced_lsn", "gauge", "Last durable LSN", "wal.synced_lsn", {}),
    ("repro_wal_appended_lsn", "gauge", "Last appended LSN", "wal.appended_lsn", {}),
    ("repro_replication_lag_blocks", "gauge", "Blocks behind the primary",
     "replication.lag_blocks", {}),
    ("repro_replication_batches_applied_total", "counter", "Primary batches applied",
     "replication.batches_applied", {}),
    ("repro_replication_subscribers", "gauge", "Live replica streams",
     "replication.subscribers", {}),
    ("repro_replication_batches_published_total", "counter", "Batches published to replicas",
     "replication.batches_published", {}),
    ("repro_replication_records_shipped_total", "counter", "WAL records shipped to replicas",
     "replication.records_shipped", {}),
    ("repro_cluster_shard_id", "gauge", "Shard this server owns", "cluster.shard_id", {}),
    ("repro_cluster_manifest_epoch", "gauge", "Adopted manifest epoch",
     "cluster.manifest_epoch", {}),
    ("repro_cluster_migration_phase", "gauge",
     "Migration phase (0=serving 1=snapshot 2=catchup 3=promoting 4=moved)",
     "cluster.phase_code", {}),
    ("repro_cluster_moved_referrals_total", "counter", "MOVED referrals answered",
     "cluster.moved_referrals", {}),
)


def stats_leaves(stats: dict, path: str) -> List[Tuple[Optional[str], Any]]:
    """``(key, value)`` of every leaf ``path`` names in a STATS snapshot:
    ``key`` is what the path's ``*`` segment matched (``None`` without
    one); an absent section or key yields nothing."""
    nodes: List[Tuple[Optional[str], Any]] = [(None, stats)]
    for part in path.split("."):
        if part == "*":
            nodes = [(key, value) for _, node in nodes for key, value in node.items()]
        else:
            nodes = [(key, node[part]) for key, node in nodes if part in node]
    return nodes


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of the serving layer.

    Attributes:
        batch_max_puts: group-commit size threshold.
        batch_max_delay: group-commit time threshold (seconds).
        cache_capacity: entries in the versioned read cache.
        negative_cache_capacity: addresses in the negative-lookup cache
            (0 disables it).
        executor_workers: threads running engine work (reads + commits).
    """

    batch_max_puts: int = 512
    batch_max_delay: float = 0.01
    cache_capacity: int = 8192
    negative_cache_capacity: int = 4096
    executor_workers: int = 8
    #: Hard cap on triples per SCAN result page (bounds frame sizes and
    #: per-request engine work; longer scans ride the continuation key).
    scan_page_max: int = 1024

    def __post_init__(self) -> None:
        if self.batch_max_puts < 1:
            raise ValueError("batch_max_puts must be >= 1")
        if self.batch_max_delay <= 0:
            raise ValueError("batch_max_delay must be positive")
        if self.executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        if self.scan_page_max < 1:
            raise ValueError("scan_page_max must be >= 1")
        if self.negative_cache_capacity < 0:
            raise ValueError("negative_cache_capacity cannot be negative")


#: Samples per cost ring of the sync-path choice (under a second of load).
_COST_RING = 16
#: Page size used when a SCAN request asks for 0 (no explicit limit).
SCAN_PAGE_DEFAULT = 256


class _WalSyncer:
    """Group fsync: one ``WriteAheadLog.sync`` pass per event-loop tick.

    The first :meth:`durable` of a tick schedules one pass for the end of
    the next, so every PUT / MULTI_PUT decoded in either loop iteration
    shares it; acks parked while a pooled pass is in flight share the next.
    Passes run one at a time, and every sync the serving layer issues is one.

    Each pass runs where it is cheaper under the present load: **F** is
    what a pass costs (``wal.sync_seconds``; the lower quartile of the
    last ``_COST_RING``, as re-taking the GIL after ``os.fsync`` inflates
    a few samples by up to a switch interval), **H** what a thread-pool
    hand-off costs right now (the median of ``hops``, fed by
    :meth:`ColeServer._run`).  Inline while F <= H — the loop never blocks
    on a sync for longer than the hand-off it avoids would have cost that
    ack — pooled otherwise, and until both have a sample.
    """

    def __init__(self, wal, run_in_executor, hops, metrics) -> None:
        self.wal = wal
        self._run = run_in_executor
        self._hops = hops
        self._passes: Deque[float] = deque(maxlen=_COST_RING)
        self._waiters: Deque[tuple] = deque()  # (lsn, future), arrival order
        self._task: Optional[asyncio.Task] = None
        self.syncs_inline = self.syncs_pooled = 0
        self._fsync_hist = metrics.histogram(
            "repro_wal_fsync_seconds", help="WAL sync() pass, on the thread that ran it"
        )

    def _inline_pays(self) -> bool:
        passes, hops = self._passes, self._hops
        if not passes or not hops:
            return False
        return sorted(passes)[len(passes) // 4] <= sorted(hops)[len(hops) // 2]

    async def durable(self, lsn: int) -> None:
        """Return once the WAL record at ``lsn`` is durable (per policy)."""
        policy = self.wal.sync_policy
        if policy == "none" or (policy == "batch" and lsn <= self.wal.synced_lsn):
            return  # "none" acks on reaching the OS page cache
        future = asyncio.get_running_loop().create_future()
        self._waiters.append((lsn, future))
        if self._task is None:
            self._task = asyncio.ensure_future(self._pass())
        await future

    async def _pass(self) -> None:
        """One sync for the acks parked so far (``always``: the oldest)."""
        # A PUT already in its socket when the first ack parked shares the pass.
        await asyncio.sleep(0)
        waiters = self._waiters
        if self.wal.sync_policy == "always":
            parked = [waiters.popleft()]  # strict: an fsync per ack
        else:
            parked = list(waiters)
            waiters.clear()
        error = "the log is closed"
        try:
            if self._inline_pays():
                self.syncs_inline += 1
                synced = self.wal.sync()  # repro-lint: disable=async-blocking-call; the budgeted fsync: F <= H
            else:
                self.syncs_pooled += 1
                synced = await self._run(self.wal.sync)
        except Exception as exc:  # fail every parked ack loudly
            synced, error = -1, exc
        else:
            self._passes.append(self.wal.sync_seconds)
            self._fsync_hist.observe(self.wal.sync_seconds)
        # Each parked record was appended before the pass captured its LSN:
        # a pass that did not reach one (a closed or poisoned log) never will.
        for lsn, future in parked:
            if future.done():
                continue
            if lsn <= synced:
                future.set_result(None)
            else:
                future.set_exception(StorageError(f"WAL sync failed: {error}"))
        self._task = asyncio.ensure_future(self._pass()) if waiters else None


def _error_frame(exc: Exception) -> bytes:
    return protocol.encode_error(f"{type(exc).__name__}: {exc}")


class Connection(protocol.FrameProtocol):
    """One accepted socket: frames in, answers out, strictly in order.

    ``data_received`` splits its chunk into request frames and answers
    them on the spot: each is decoded and ``dispatch(op, args)`` — a
    coroutine function returning the response frame — is stepped once,
    inline.  A handler that finishes without suspending is answered
    before ``data_received`` returns, and the answers to one chunk leave
    in one ``transport.write``.  One that suspends continues as a task
    (kept in the owner's ``tasks`` so it can wait for them) while later
    frames wait in ``_backlog``.  ``stream(conn, *args)`` serves a
    ``stream`` op: it owns the connection until it ends, and the
    connection ends with it.  Every step of every request runs in one
    ``contextvars.Context``, as when a connection was one task.

    Reading stops while the peer is not reading its answers
    (``pause_writing``: no further frame is answered, so the write buffer
    never exceeds the high-water mark plus one answer) and while frames
    arrive behind a suspended request (the kernel holds what follows).
    ``observe(op, seconds)`` records each request answered without error.
    """

    def __init__(
        self,
        dispatch: Callable,
        conns: set,
        tasks: set,
        observe: Optional[Callable[[int, float], None]] = None,
        stream: Optional[Callable] = None,
    ) -> None:
        super().__init__()
        self._dispatch = dispatch
        self._conns = conns  # the owner's live connections
        self._tasks = tasks
        self._observe = observe
        self._stream = stream
        self._backlog: Deque[bytes] = deque()
        self._transport: Optional[asyncio.Transport] = None
        self._ctx: Optional[contextvars.Context] = None
        self._high_water = 0
        self._busy = False  # a suspended request (or a stream) holds the queue
        self._choked = False  # the peer is not reading its answers
        self._eof = False  # the peer half-closed: close once answers are out
        self._drained: Optional[asyncio.Future] = None  # a stream in drain()

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._ctx = contextvars.copy_context()
        self._high_water = transport.get_write_buffer_limits()[1]
        self._conns.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._transport = None
        self._conns.discard(self)
        self._backlog.clear()
        self.resume_writing()  # a stream parked in drain() finds the peer gone

    def data_received(self, data: bytes) -> None:
        try:
            self._backlog.extend(self._frames.feed(data))
        except StorageError:
            # Broken framing (an oversized length prefix): the stream
            # cannot be re-synchronized — drop the connection.
            self.close()
        else:
            if self._busy or self._choked:
                self._transport.pause_reading()
            else:
                self._pump([])

    def eof_received(self) -> bool:
        # A peer that half-closes after its last request still gets its
        # answers: True keeps the write side open until they are out.
        self._eof = True
        return self._busy or bool(self._backlog)

    def pause_writing(self) -> None:
        self._choked = True

    def resume_writing(self) -> None:
        self._choked = False
        if self._drained is not None:
            self._drained.set_result(None)
            self._drained = None
        if not self._busy:
            self._pump([])

    def _pump(self, out: List[bytes]) -> None:
        """Answer queued frames — after ``out``, answers already owed —
        until one suspends, the peer stops reading, or none is left."""
        transport = self._transport
        if transport is None:
            return
        backlog, observe, clock = self._backlog, self._observe, time.perf_counter
        room = -1  # answers that fit under the high-water mark; -1: ask
        while True:
            if room < 0 or not backlog:
                if out:
                    transport.write(b"".join(out))  # may call pause_writing
                    out = []
                if self._choked or not backlog:
                    break
                room = self._high_water - transport.get_write_buffer_size()
            started = clock()
            try:
                op, args = protocol.decode_request(backlog.popleft())
                if op == Op.REPL_SUBSCRIBE and self._stream is not None:
                    rest = self._streaming(*args)
                else:
                    coro = self._dispatch(op, args)
                    rest = self._finish(
                        op, started, coro, self._ctx.run(coro.send, None)
                    )
            except StopIteration as done:  # answered without suspending
                out.append(done.value)
                room -= len(done.value)
                if observe is not None:
                    observe(op, clock() - started)
            except Exception as exc:
                out.append(_error_frame(exc))
            else:
                self._busy = True
                transport.write(b"".join(out))
                task = asyncio.get_running_loop().create_task(rest)
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                return
        if self._choked:
            transport.pause_reading()
        elif self._eof and not backlog:
            self.close()
        else:
            transport.resume_reading()

    async def _finish(self, op: int, started: float, coro, waiting) -> None:
        """Carry a request whose inline step left it awaiting ``waiting``
        (a future; ``None`` after a bare yield) to its answer, then take
        up the frames queued behind it.

        What :class:`asyncio.Task` does for a coroutine it started, done
        for one it did not: wait for the awaited future, step again —
        every step inside the connection's context, so a ``ContextVar``
        token made before a suspension resets after it.
        """
        try:
            while True:
                try:
                    if waiting is None:
                        await asyncio.sleep(0)
                    else:
                        # The inline step flagged the future as awaited (the
                        # Future/Task handshake); clear it as a Task would.
                        waiting._asyncio_future_blocking = False
                        await waiting
                # Whatever ends the wait — the future's error, this task's
                # cancellation — is the handler's to see, where it waits.
                except BaseException as exc:
                    step, arg = coro.throw, exc
                else:
                    step, arg = coro.send, None
                waiting = self._ctx.run(step, arg)
        except StopIteration as done:
            response = done.value
            if self._observe is not None:
                self._observe(op, time.perf_counter() - started)
        except Exception as exc:
            response = _error_frame(exc)
        self._busy = False
        self._pump([response])

    async def _streaming(self, *args) -> None:
        try:
            await self._stream(self, *args)
        except ConnectionError:
            pass  # the subscriber went away
        except Exception as exc:
            self.write(_error_frame(exc))
        finally:
            self.close()  # ``_busy`` stays set: nothing else is answered

    def write(self, data: bytes) -> None:
        """Hand a stream's ``data`` to the transport (dropped once the
        peer is gone: the :meth:`drain` that follows says so)."""
        if self._transport is not None:
            self._transport.write(data)

    async def drain(self) -> None:
        """Wait until the peer has read enough for more to be written."""
        if self._choked:
            self._drained = asyncio.get_running_loop().create_future()
            await self._drained
        if self._transport is None:
            # What drain() on a reset StreamWriter raises: the transport
            # failure a stream handler already ends on.
            raise ConnectionResetError(  # repro-lint: disable=error-taxonomy
                "connection lost"
            )

    def close(self) -> None:
        """Close the socket once its buffered answers are sent; whatever
        a still-suspended request answers after this is dropped."""
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()


class ColeServer:
    """Serve one engine over TCP."""

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServerConfig] = None,
        wal=None,
        replica_of: Optional[Tuple[str, int]] = None,
        cluster=None,
        replica_wal=None,
    ) -> None:
        """Wrap ``engine`` (a ``Cole`` or ``ShardedCole``); ``port=0``
        binds an ephemeral port (reported by :meth:`start`).

        ``wal`` (a :class:`~repro.wal.WriteAheadLog`, caller-owned like
        the engine) makes the server durable: its unreplayed tail is
        replayed into the engine before the port binds, and every PUT is
        acknowledged only once its record is durable under the WAL's
        sync policy.  A WAL-enabled server is also a replication
        *primary*: replicas may subscribe to its record stream.

        ``replica_of`` makes this server a read-only *replica* of the
        primary at ``(host, port)``; replicas keep no WAL of their own
        (their recovery source is the primary's stream), so the two
        options are mutually exclusive.  ``replica_wal`` is the cluster
        migration exception: a *local* WAL the applier mirrors every
        applied batch into, so a catch-up replica that is about to be
        promoted to primary can recover from its own disk — the promoted
        server then reuses the same WAL through the ordinary ``wal=``
        recovery path.

        ``cluster`` (a :class:`~repro.cluster.node.ShardRole`, duck-
        typed) makes this server one shard of a cluster: its
        ``referral_for`` hook is consulted before every dispatch and may
        answer ``MOVED`` instead (mid-migration cutover, or a key the
        shard does not own), and ``Op.CLUSTER`` serves its manifest.
        """
        if replica_of is not None and wal is not None:
            raise ValueError(
                "a replica keeps no WAL of its own; recovery re-streams "
                "from the primary"
            )
        if replica_wal is not None and replica_of is None:
            raise ValueError("replica_wal only applies to a replica server")
        self.engine = engine
        self.host = host
        self.port = port
        self.config = config if config is not None else ServerConfig()
        self.wal = wal
        self.wal_syncer: Optional[_WalSyncer] = None
        self.replay_stats = None  # ReplayStats once start() recovered
        self.replica_of = replica_of
        self.replica_wal = replica_wal
        self.cluster = cluster
        self.replica = None  # ReplicaApplier in replica mode
        self.hub = None  # ReplicationHub on a WAL-enabled primary
        self._replica_task: Optional[asyncio.Task] = None
        self.cache = VersionedReadCache(self.config.cache_capacity)
        self.negative = NegativeLookupCache(self.config.negative_cache_capacity)
        #: Commit version, bumped per group commit: the caches' fill floor.
        self.version = 0
        #: Engine point reads: ``inline`` on the event loop; ``would_block``
        #: found L0 mid-insert and re-ran pooled; ``pooled`` MULTI_GET batches.
        self.reads = {"inline": 0, "pooled": 0, "would_block": 0}
        self.batcher: Optional[WriteBatcher] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: Set[Connection] = set()
        #: Tasks of requests that suspended (and of replication streams).
        self._conn_tasks: Set[asyncio.Task] = set()
        # Op counters (STATS).
        self.op_counts = {name: 0 for name in OP_NAMES.values()}
        self.overlay_hits = 0
        self.connections_total = 0
        #: The process-wide metrics registry: per-op latency histograms
        #: land here, the batcher / WAL syncer / merge schedulers /
        #: replica applier record into it, and ``Op.METRICS`` exposes it.
        self.metrics = MetricsRegistry()
        self._op_hists: dict = {}  # opcode -> cached latency histogram
        #: Cost (seconds) of the latest thread-pool hand-offs, see :meth:`_run`.
        self._hops: Deque[float] = deque(maxlen=_COST_RING)
        self._hop_hist = self.metrics.histogram(
            "repro_executor_hop_seconds",
            help="Thread-pool hand-off: submit -> start plus finish -> resume",
        )

    # =========================================================================
    # lifecycle
    # =========================================================================

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        With a WAL attached, the unacked tail is replayed into the
        engine first — no request can observe pre-recovery state.
        """
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="cole-serve",
        )
        if self.wal is not None:
            from repro.replication import ReplicationHub
            from repro.wal import replay_wal

            self.replay_stats = await self._run(replay_wal, self.engine, self.wal)
            # Recovery re-commits blocks without writing COMMIT markers;
            # re-mark them so a replica's catch-up scan can ship those
            # heights (the roots are deterministic, so re-marking after
            # every recovery is idempotent in content).
            def _remark(replayed: dict) -> int:
                lsn = 0
                for height, root in sorted(replayed.items()):
                    lsn = self.wal.append_commit(height, root)
                return lsn

            remarked = await self._run(_remark, self.replay_stats.replayed_roots)
            self.wal_syncer = _WalSyncer(self.wal, self._run, self._hops, self.metrics)
            if remarked:
                await self.wal_syncer.durable(remarked)
            self.hub = ReplicationHub(self.engine, self.wal)
        if self.replica_of is not None:
            from repro.replication import ReplicaApplier

            self.replica = ReplicaApplier(
                self, *self.replica_of, wal=self.replica_wal
            )
            self._replica_task = asyncio.get_running_loop().create_task(
                self.replica.run()
            )
        else:
            self.batcher = WriteBatcher(
                self.engine,
                max_batch=self.config.batch_max_puts,
                max_delay=self.config.batch_max_delay,
                run_in_executor=self._run,
                on_commit=self._committed,
                wal=self.wal,
                durable=self.wal_syncer.durable if self.wal_syncer else None,
                hub=self.hub,
                metrics=self.metrics,
            )
        # Merge durations / bytes rewritten: every shard's scheduler
        # reports into this server's registry.
        for shard in getattr(self.engine, "shards", None) or [self.engine]:
            scheduler = getattr(shard, "scheduler", None)
            if scheduler is not None:
                scheduler.metrics = self.metrics
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled or :meth:`stop`."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting, drain the batcher, release the thread pool.

        The engine is *not* closed — the caller owns it.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._replica_task is not None:
            self._replica_task.cancel()
            try:
                await self._replica_task
            # The applier records its own terminal error (last_error /
            # diverged); stop() only needs the task to be finished.
            except (asyncio.CancelledError, Exception):  # repro-lint: disable=error-taxonomy
                pass
            self._replica_task = None
        if self.hub is not None:
            # Wake every replication stream with the end-of-stream
            # sentinel — their handlers park on queue.get(), which a
            # closed transport alone cannot interrupt.
            self.hub.close()
        # Closing the transports stops new frames; requests already
        # suspended run to completion (no task cancellation, no half-
        # written responses) before the batcher and the pool go.
        for conn in list(self._conns):
            conn.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self.batcher is not None:
            await self.batcher.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _run(self, fn, *args):
        """Run engine work on the thread pool; awaitable.  The hand-off's
        two queueing gaps (submit -> start on a pool thread, finish ->
        resumed on the loop) are timed: the WAL syncer's H."""
        clock = time.perf_counter
        submitted = clock()
        marks = [0.0, 0.0]  # how long fn waited to start; when it finished

        def call():
            marks[0] = clock() - submitted
            try:
                return fn(*args)
            finally:
                marks[1] = clock()

        def resumed(future) -> None:
            if not future.cancelled():
                hop = marks[0] + clock() - marks[1]
                self._hops.append(hop)
                self._hop_hist.observe(hop)

        future = asyncio.get_running_loop().run_in_executor(self._executor, call)
        future.add_done_callback(resumed)
        return future

    def _committed(self, written: dict) -> None:
        """Commit hook (a group commit; on a replica an applied batch):
        only the ``addr -> value`` it wrote changed, so exactly those cache
        entries are reconciled — the overlay covered them until now."""
        self.version += 1
        self.cache.advance(
            self.version, (((0, addr), value) for addr, value in written.items())
        )
        self.negative.advance(self.version, written.items())

    def _committed_height(self) -> int:
        """Highest committed height: history at or below it is immutable."""
        if self.batcher is not None:
            return self.batcher.last_height
        return self.replica.applied_height

    def _inline(self, value):
        """Count one non-blocking engine read's outcome; returns it."""
        self.reads["would_block" if value is WOULD_BLOCK else "inline"] += 1
        return value

    # =========================================================================
    # connection handling
    # =========================================================================

    def _accept(self) -> Connection:
        self.connections_total += 1
        return Connection(
            self._dispatch,
            self._conns,
            self._conn_tasks,
            observe=self._observe_op,
            stream=self._stream_replication,
        )

    def _observe_op(self, op: int, elapsed: float) -> None:
        """Record one served request's wall time (histogram cached per
        opcode so the hot path never hits the registry dict)."""
        hist = self._op_hists.get(op)
        if hist is None:
            hist = self.metrics.histogram(
                "repro_op_latency_seconds",
                help="Server-side request latency by opcode",
                op=OP_NAMES.get(op, str(op)),
            )
            self._op_hists[op] = hist
        hist.observe(elapsed)

    async def _dispatch(self, op: int, args: tuple) -> bytes:
        spec = protocol.OPS[op]
        self.op_counts[spec.name] += 1
        if self.cluster is not None:
            # The cluster role may refer this request elsewhere (MOVED):
            # this check and the batcher insert share one synchronous
            # step (the connection steps this coroutine inline up to its
            # first suspension, which comes after the insert), which is
            # what makes the migration cutover lossless — once the role
            # flips to moved, no write can slip in and ack here.
            referral = self.cluster.referral_for(op, args)
            if referral is not None:
                return referral
        if self.replica is not None and spec.kind == protocol.WRITE:
            return protocol.encode_not_primary(self.replica.primary_addr)
        return await self._HANDLERS[op](self, *args)

    # =========================================================================
    # op handlers: ``_op_<name>`` answers one row of protocol.OPS with its
    # response frame (writes and the small control ops here; reads and the
    # ROOT / STATS snapshot in the sections below)
    # =========================================================================

    async def _op_put(self, addr: bytes, value: bytes) -> bytes:
        height = self.batcher.put(addr, value)
        if self.wal_syncer is not None:
            # The write is buffered and WAL-appended; the ack waits
            # for its record to be durable (group fsync).
            await self.wal_syncer.durable(self.batcher.last_put_lsn)
        return protocol.encode_height_response(height)

    async def _op_multi_put(self, items: List[Tuple[bytes, bytes]]) -> bytes:
        height = self.batcher.put_batch(items)
        if self.wal_syncer is not None:
            # One durability wait for the whole batch: its records
            # share the batch LSN the group fsync must cover.
            await self.wal_syncer.durable(self.batcher.last_put_lsn)
        return protocol.encode_height_response(height)

    async def _op_stats(self) -> bytes:
        return protocol.encode_blob_response(json.dumps(await self._stats()).encode())

    async def _op_metrics(self) -> bytes:
        """Prometheus text exposition: the live histograms plus every
        :data:`METRICS_TABLE` row read off one STATS snapshot."""
        stats, registry = await self._stats(), self.metrics
        for name, kind, help, path, labels in METRICS_TABLE:
            for key, value in stats_leaves(stats, path):
                filled = {label: key if v == "*" else v for label, v in labels.items()}
                getattr(registry, kind)(name, help, **filled).set(value)
        return protocol.encode_blob_response(registry.expose().encode("utf-8"))

    async def _op_flush(self) -> bytes:
        self.batcher.forced_flushes += 1
        root, height = await self.batcher.flush()
        return protocol.encode_root_response(
            RootInfo(digest=root, version=self.version, height=height)
        )

    async def _op_cluster(self) -> bytes:
        if self.cluster is None:
            return protocol.encode_error("this server is not a cluster member")
        return protocol.encode_blob_response(self.cluster.manifest_json())

    async def _op_admin(self, _blob: bytes) -> bytes:
        return protocol.encode_error(
            "ADMIN is answered by the node control port, not a shard server"
        )

    # =========================================================================
    # replication streaming (primary side)
    # =========================================================================

    async def _stream_replication(
        self, conn: Connection, start_height: int
    ) -> None:
        """Serve one REPL_SUBSCRIBE connection until it drops.

        Order of operations is load-bearing: the queue registers
        *before* the catch-up scan, so a commit landing in between is
        seen by the scan (its marker is already on disk) or the queue or
        both — and duplicates are collapsed by the ``last`` watermark,
        which is sound because a height carries exactly one batch.
        """
        self.op_counts["repl"] += 1
        if self.hub is None:
            if self.replica is not None:
                conn.write(protocol.encode_not_primary(self.replica.primary_addr))
            else:
                conn.write(
                    protocol.encode_error(
                        "replication requires a WAL-enabled primary "
                        "(serve with --wal)"
                    )
                )
            await conn.drain()
            return
        try:
            self.hub.check_start(start_height)
        except StorageError as exc:
            conn.write(protocol.encode_error(str(exc)))
            await conn.drain()
            return
        queue = self.hub.register()
        # No await may separate the floor check, the registration, the
        # committed-height capture, and this flag: together they pin
        # every height above start_height — heights <= committed are
        # fully on disk and truncation defers while the flag is up;
        # later commits land in the queue.
        committed = self.batcher.last_height
        self.hub.catchups_active += 1
        try:
            try:
                conn.write(protocol.encode_repl_handshake(committed))
                await conn.drain()
                batches = await self._run(self.hub.catchup, start_height, committed)
            finally:
                self.hub.catchups_active -= 1
            last = start_height
            for batch in batches:
                last = await self._ship(conn, batch, last)
            while True:
                batch = await queue.get()
                if batch is None:  # server stopping
                    return
                last = await self._ship(conn, batch, last)
        finally:
            self.hub.unregister(queue)

    async def _ship(self, conn: Connection, batch, last: int) -> int:
        """Stream one ``(height, records)`` batch unless the ``last``
        height shipped already covers it; returns the new watermark."""
        height, records = batch
        if height <= last:
            return last
        conn.write(b"".join(map(protocol.encode_repl_record, records)))
        self.hub.records_shipped += len(records)
        await conn.drain()
        return height

    # =========================================================================
    # reads
    # =========================================================================

    async def _op_get(self, addr: bytes) -> bytes:
        buffered = self.batcher.lookup(addr) if self.batcher is not None else MISSING
        if buffered is not MISSING:
            self.overlay_hits += 1
            return protocol.encode_value_response(buffered)
        version = self.version
        # Misses live in the dedicated negative cache — a miss-heavy
        # workload must not evict the hot positive working set.
        if self.negative.contains(addr):
            return protocol.encode_value_response(None)
        hit, value = self.cache.get((0, addr))
        if not hit:
            value = self._inline(self.engine.get(addr, wait=False))
            if value is WOULD_BLOCK:
                value = await self._run(self.engine.get, addr)
            if value is None:
                self.negative.add(addr, version)
            else:
                self.cache.put((0, addr), version, value)
        return protocol.encode_value_response(value)

    async def _op_multi_get(self, addrs: List[bytes]) -> bytes:
        """Answer one MULTI_GET batch: caches on-loop, one engine trip.

        Every key first runs the same overlay -> negative-cache -> read-
        cache ladder as :meth:`_op_get`; only the leftovers pay the thread-
        pool hop, as a single ``engine.get_many`` (one view, one
        source walk) instead of an engine lookup per key.
        """
        version = self.version
        results: List[Optional[bytes]] = [None] * len(addrs)
        pending: List[int] = []
        for index, addr in enumerate(addrs):
            buffered = (
                self.batcher.lookup(addr) if self.batcher is not None else MISSING
            )
            if buffered is not MISSING:
                self.overlay_hits += 1
                results[index] = buffered
                continue
            if self.negative.contains(addr):
                continue
            hit, value = self.cache.get((0, addr))
            if hit:
                results[index] = value
                continue
            pending.append(index)
        if pending:
            self.reads["pooled"] += 1
            values = await self._run(
                self.engine.get_many, [addrs[index] for index in pending]
            )
            for index, value in zip(pending, values):
                results[index] = value
                if value is None:
                    self.negative.add(addrs[index], version)
                else:
                    self.cache.put((0, addrs[index]), version, value)
        return protocol.encode_multi_get_response(results)

    async def _op_get_at(self, addr: bytes, blk: int) -> bytes:
        buffered = (
            self.batcher.lookup_at(addr, blk) if self.batcher is not None else MISSING
        )
        if buffered is not MISSING:
            self.overlay_hits += 1
            return protocol.encode_value_response(buffered)
        hit, value = self.cache.get((1, addr, blk))
        if not hit:
            # Committed history is immutable (the paper's provenance
            # property); at or above the open heights nothing is cached.
            version, cacheable = self.version, blk <= self._committed_height()
            value = self._inline(self.engine.get_at(addr, blk, wait=False))
            if value is WOULD_BLOCK:
                value = await self._run(self.engine.get_at, addr, blk)
            if cacheable:
                self.cache.put((1, addr, blk), version, value)
        return protocol.encode_value_response(value)

    async def _op_prov(self, addr: bytes, blk_low: int, blk_high: int) -> bytes:
        # Anchor at a committed Hstate: buffered writes must be in the
        # engine before the proof is cut, or a range covering the open
        # block would silently miss them.  A replica buffers nothing —
        # its engine state *is* its committed state.
        if self.batcher is not None:
            await self.batcher.flush()
        result, root = await self._run(
            self.engine.prov_query_anchored, addr, blk_low, blk_high
        )
        blob = pickle.dumps((result, root), protocol=pickle.HIGHEST_PROTOCOL)
        return protocol.encode_blob_response(blob)

    async def _op_scan(
        self, addr_low: bytes, addr_high: bytes, at_blk: int, limit: int
    ) -> bytes:
        # Snapshot at the current commit version: buffered writes commit
        # first (cheap no-op when the batch is empty), so the scan sees
        # every acked write without merging the overlay into the ordered
        # stream.  A replica buffers nothing — its engine state *is* its
        # committed state.
        # Only an un-pinned (latest) request forces the group commit —
        # that is what makes acked-but-buffered writes visible to the
        # scan (read-your-writes at scan initiation).  Pinned requests
        # (explicit at_blk, every continuation page) read a height the
        # open batch cannot commit at, so flushing would buy nothing:
        # a paged scan pays the batching tax once, not per page.  Under
        # a scan-heavy write mix (YCSB-E) first pages still shrink
        # group-commit batches; that is the accepted trade for exact
        # scans — see DESIGN.md "Cursors & Scans".
        if self.batcher is not None and at_blk == protocol.LATEST_BLK:
            await self.batcher.flush()
        page = min(limit or SCAN_PAGE_DEFAULT, self.config.scan_page_max)
        # Pin the page to the committed height at serve time: a commit
        # landing while the engine scan runs must not leak into it, and
        # the client re-pins continuation pages to the first page's
        # height so a multi-page scan describes one committed state.
        snapshot = self._committed_height()
        resolved_at = snapshot if at_blk == protocol.LATEST_BLK else at_blk
        # Ask for one extra triple: its presence proves the range has
        # more, and its address *is* the continuation key — no address
        # arithmetic, no false has_more on an exactly-full final page.
        rows = await self._run(
            lambda: self.engine.scan(
                addr_low, addr_high, at_blk=resolved_at, limit=page + 1
            )
        )
        continuation = None
        if len(rows) > page:
            continuation = rows[page][0]
            rows = rows[:page]
        return protocol.encode_scan_response(rows, continuation, resolved_at)

    # =========================================================================
    # control plane
    # =========================================================================

    async def _op_root(self) -> bytes:
        if self.replica is not None:
            root = self.replica.last_root or self.replica.start_root
            if root is None:  # the applier has not started yet
                root = await self._run(self.engine.root_digest)
            height = self.replica.applied_height
        else:
            if self.batcher.last_root is None:
                self.batcher.last_root = await self._run(self.engine.root_digest)
            root, height = self.batcher.last_root, self.batcher.last_height
        return protocol.encode_root_response(
            RootInfo(digest=root, version=self.version, height=height)
        )

    async def _stats(self) -> dict:
        batcher = self.batcher
        engine = self.engine
        storage = await self._run(engine.storage_bytes)
        compaction = await self._run(engine.compaction_stats)
        num_shards = len(engine.shards) if hasattr(engine, "shards") else 1
        committed = self._committed_height()
        stats = {
            "ops": dict(self.op_counts),
            "connections_total": self.connections_total,
            "version": self.version,
            "committed_height": committed,
            "open_height": batcher.next_height if batcher is not None else committed,
            "buffered_puts": batcher.buffered if batcher is not None else 0,
            "overlay_hits": self.overlay_hits,
            "reads": dict(self.reads),
            # One locked snapshot: hits / misses / hit_rate are mutated by
            # executor threads, so reading them field-by-field here could
            # tear (a hit_rate computed from a hits/misses pair no single
            # instant ever held).
            "cache": self.cache.stats(),
            "negative_cache": self.negative.stats(),
            "engine": {
                "puts_total": engine.puts_total,
                "storage_bytes": storage,
                "disk_levels": engine.num_disk_levels(),
                "shards": num_shards,
                # Compaction-policy accounting (repro.core.compaction):
                # cumulative flush/merge bytes and the per-level run
                # layout behind `repro query compaction`.
                "compaction": compaction,
                # Where the engine lives on disk: repro query resolves a
                # live server back to its workspace through this.
                "workspace": getattr(engine, "directory", None)
                or getattr(getattr(engine, "workspace", None), "root", None),
            },
            "latency": self._latency_summaries(),
        }
        if batcher is not None:
            stats["batcher"] = {
                "commits": batcher.commits,
                "batched_puts": batcher.batched_puts,
                "avg_batch": (
                    batcher.batched_puts / batcher.commits if batcher.commits else 0.0
                ),
                "size_flushes": batcher.size_flushes,
                "timer_flushes": batcher.timer_flushes,
                "forced_flushes": batcher.forced_flushes,
                "multi_put_batches": batcher.multi_put_batches,
            }
        engine_stats = getattr(engine, "stats", None)
        if engine_stats is not None:
            stats["io"] = {
                "page_reads": engine_stats.total_reads,
                "page_writes": engine_stats.total_writes,
                "page_cache": engine_stats.cache_summary(),
                "categories": engine_stats.per_category(),
            }
        if self.wal is not None:
            stats["wal"] = self.wal.stats()
            stats["wal"]["syncs_inline"] = self.wal_syncer.syncs_inline
            stats["wal"]["syncs_pooled"] = self.wal_syncer.syncs_pooled
            if self.replay_stats is not None:
                stats["wal"]["replayed_blocks"] = self.replay_stats.blocks_replayed
                stats["wal"]["replayed_puts"] = self.replay_stats.puts_replayed
        if self.cluster is not None:
            stats["cluster"] = self.cluster.stats()
        if self.replica is not None:
            stats["replication"] = self.replica.stats()
        elif self.hub is not None:
            stats["replication"] = {
                "role": "primary",
                "subscribers": self.hub.subscribers,
                "subscribers_total": self.hub.subscribers_total,
                "subscribers_evicted": self.hub.subscribers_evicted,
                "batches_published": self.hub.batches_published,
                "records_shipped": self.hub.records_shipped,
                "applied_height": committed,
                "availability_floor": self.hub.availability_floor(),
            }
        return stats

    def _latency_summaries(self) -> dict:
        """The ``latency`` STATS section: histogram digests by family.

        ``op`` and ``merge`` are always present (label -> summary, empty
        until something was recorded); the single-series families appear
        once they have samples.
        """
        registry = self.metrics
        section: dict = {
            "op": {
                labels.get("op", ""): hist.summary()
                for labels, hist in registry.histograms("repro_op_latency_seconds")
            },
            "merge": {
                labels.get("kind", ""): hist.summary()
                for labels, hist in registry.histograms("repro_merge_seconds")
            },
        }
        for name, key in (
            ("repro_commit_flush_seconds", "commit_flush"),
            ("repro_commit_batch_size", "commit_batch_size"),
            ("repro_wal_fsync_seconds", "wal_fsync"),
            ("repro_replica_apply_seconds", "replica_apply"),
        ):
            series = registry.histograms(name)
            if series:
                section[key] = series[0][1].summary()
        return section

    #: opcode -> handler, called as ``handler(self, *args)``.  The one
    #: ``stream`` op (REPL_SUBSCRIBE) is absent: it takes over its
    #: :class:`Connection` instead of answering.
    _HANDLERS = {
        Op.PUT: _op_put,
        Op.GET: _op_get,
        Op.GET_AT: _op_get_at,
        Op.PROV: _op_prov,
        Op.ROOT: _op_root,
        Op.STATS: _op_stats,
        Op.FLUSH: _op_flush,
        Op.SCAN: _op_scan,
        Op.MULTI_GET: _op_multi_get,
        Op.MULTI_PUT: _op_multi_put,
        Op.METRICS: _op_metrics,
        Op.CLUSTER: _op_cluster,
        Op.ADMIN: _op_admin,
    }


class ServerThread(LoopThread):
    """A :class:`ColeServer` on its own event-loop thread.

    The in-process deployment shape used by the benchmarks, the tests,
    and the demo: the caller's thread stays free to run clients (or an
    entire load generator) against real sockets while the server loop
    runs here.  Takes :class:`ColeServer`'s arguments; ``start`` blocks
    until the port is bound and returns the bound ``(host, port)``.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.server = ColeServer(*args, **kwargs)
        super().__init__(self.server, "cole-server")
