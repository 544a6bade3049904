"""Group commit: coalescing many clients' puts into one block.

Every network PUT lands in the *active batch* of one :class:`WriteBatcher`.
The batch flushes into a single engine block — ``begin_block`` /
``put_many`` / ``commit_block`` on the engine's existing batched write
path — when either threshold trips:

* **size**: the batch reached ``max_batch`` puts, or
* **time**: ``max_delay`` seconds passed since the batch's first put.

This is classic group commit: the per-block costs (capacity check, L0
flush scheduling, ``Hstate`` recomputation, manifest fsync) are paid once
per batch instead of once per client write, which is what lets one
engine absorb the put streams of hundreds of connections.

Read-your-writes across all clients is preserved by the **overlay**:
buffered puts are visible to the server's read path (consulted before the
read cache and the engine) from the moment their PUT is acknowledged.
The overlay is torn down only *after* the group commit lands and the
commit hook has refreshed the cache entries of exactly the addresses the
batch wrote, so there is no instant at which a buffered write is
invisible or a stale cached answer is reachable.

The batcher is event-loop confined: ``put`` / ``lookup`` run only on the
server's asyncio thread, while the engine commit itself (and its WAL
COMMIT marker, in the same pooled call) runs on the server's thread pool
so the loop keeps serving reads during a cascade — point reads walk the
engine's published ``StoreView`` and never wait for the checkpoint.

**Durability** (optional): with a :class:`~repro.wal.WriteAheadLog`
attached, every buffered put is appended to the WAL *before* the server
acknowledges it — the ack additionally waits for the put's record to be
durable under the WAL's sync policy (the server's group-fsync path), so
a crash between ack and group commit loses nothing.  After each commit
the batcher appends a COMMIT marker and, whenever the engine's durable
checkpoint advanced, truncates WAL segments the manifest now covers.

One deliberate read-uncommitted window: the overlay publishes a
buffered write the instant it is logged, while its writer's ack may
still be waiting on the group fsync.  A *concurrent* reader can thus
observe a write that a crash in that window erases (its record is in
the un-synced tail).  The durability contract covers acked writes only;
deferring visibility to ack time would buy little — the observed value
was real, its writer just never learned it survived — at the cost of a
second overlay generation.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.common.errors import StorageError
from repro.common.hashing import Digest

#: Sentinel distinguishing "address not buffered" from a buffered value.
MISSING = object()


class WriteBatcher:
    """Buffers puts and commits them as one block per flush."""

    def __init__(
        self,
        engine,
        *,
        max_batch: int = 512,
        max_delay: float = 0.01,
        run_in_executor: Callable[..., Awaitable],
        on_commit: Optional[Callable[[Dict[bytes, bytes]], None]] = None,
        wal=None,
        durable: Optional[Callable[[int], Awaitable]] = None,
        hub=None,
        metrics=None,
    ) -> None:
        """``run_in_executor(fn, *args)`` awaits ``fn`` off-loop;
        ``on_commit(written)`` fires after each commit with the batch's
        ``addr -> value`` (the server reconciles its caches); ``wal``: an
        optional :class:`~repro.wal.WriteAheadLog` every put is appended to;
        ``hub`` is an optional :class:`~repro.replication.ReplicationHub`
        each committed batch is published to once ``durable(lsn)`` — the
        server's WAL syncer — has made its COMMIT marker durable (requires
        ``wal`` and ``durable``); ``metrics`` is an optional
        :class:`~repro.obs.MetricsRegistry` recording flush latency and
        the batch-size distribution."""
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._run = run_in_executor
        self._on_commit = on_commit
        self.wal = wal
        self._durable = durable
        self._hub = hub
        #: LSN of the most recent put's WAL record (ack durability mark).
        self.last_put_lsn = 0
        #: LSN of the most recent COMMIT marker (covers its batch's puts).
        self.last_commit_lsn = 0
        self._wal_truncated_at = min(engine.shard_checkpoints()) if wal else -1
        # The open block: puts buffered here commit at _next_height.
        self._next_height = max(engine.current_blk, engine.checkpoint_blk) + 1
        self._active_items: List[Tuple[bytes, bytes]] = []
        self._active_overlay: Dict[bytes, bytes] = {}
        # The in-flight flush (at most one; _flush_lock serializes).
        self._flushing_overlay: Dict[bytes, bytes] = {}
        self._flushing_height = -1
        self._flush_lock = asyncio.Lock()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._closed = False
        # Accounting (exposed via the STATS op).
        self.commits = 0
        self.batched_puts = 0
        self.multi_put_batches = 0
        self.size_flushes = 0
        self.timer_flushes = 0
        self.forced_flushes = 0
        self.last_root: Optional[Digest] = None
        self.last_height = max(engine.current_blk, engine.checkpoint_blk)
        # Latency/size distributions (metric objects cached here so the
        # flush path never touches the registry dict).
        self._flush_hist = None
        self._batch_size_hist = None
        if metrics is not None:
            self._flush_hist = metrics.histogram(
                "repro_commit_flush_seconds",
                help="Group-commit flush latency (engine block commit)",
            )
            self._batch_size_hist = metrics.histogram(
                "repro_commit_batch_size",
                help="Puts per group-commit batch",
                lo=1.0,
                growth=2.0,
                buckets=24,
            )

    @property
    def next_height(self) -> int:
        """Height the open (active) batch will commit at."""
        return self._next_height

    # -- write side (event loop only) -----------------------------------------

    def put(self, addr: bytes, value: bytes) -> int:
        """Buffer one put; returns the block height it will commit at.

        With a WAL attached, the put's record is appended here — before
        the caller can ack — and :attr:`last_put_lsn` is the LSN whose
        durability the ack must wait for (policy-dependent; the server's
        group syncer handles that).
        """
        if self._closed:
            raise StorageError("server is shutting down")
        height = self._next_height
        # WAL first, buffer second: a failed append must leave nothing
        # behind — a buffered-but-unlogged put would commit, be served,
        # and then vanish on recovery.  The reverse ambiguity (logged
        # but errored to the client) is the standard one: recovery may
        # resurface a write whose response was lost.
        if self.wal is not None:
            self.last_put_lsn = self.wal.append_put(addr, value, height)
        self._active_items.append((addr, value))
        self._active_overlay[addr] = value
        if len(self._active_items) >= self.max_batch:
            self.size_flushes += 1
            self._spawn_flush()
        elif self._timer is None:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(self.max_delay, self._on_timer)
        return height

    def put_batch(self, items: List[Tuple[bytes, bytes]]) -> int:
        """Buffer one MULTI_PUT batch as a unit; returns its commit height.

        The whole batch joins the active block atomically — every key
        commits at the same height, which is what the MULTI_PUT response
        promises — and with a WAL attached the batch is one
        ``append_puts`` call (one record per touched shard chain)
        instead of a record per key.  Same WAL-first ordering as
        :meth:`put`: a failed append leaves nothing buffered.
        """
        if self._closed:
            raise StorageError("server is shutting down")
        height = self._next_height
        if self.wal is not None:
            self.last_put_lsn = self.wal.append_puts(items, height)
        self._active_items.extend(items)
        for addr, value in items:
            self._active_overlay[addr] = value
        self.multi_put_batches += 1
        if len(self._active_items) >= self.max_batch:
            self.size_flushes += 1
            self._spawn_flush()
        elif self._timer is None:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(self.max_delay, self._on_timer)
        return height

    def _on_timer(self) -> None:
        self._timer = None
        if self._active_items and not self._closed:
            self.timer_flushes += 1
            self._spawn_flush()

    def _spawn_flush(self) -> None:
        asyncio.get_running_loop().create_task(self.flush())

    # -- read side (event loop only) ------------------------------------------

    def lookup(self, addr: bytes):
        """Buffered value of ``addr``, or :data:`MISSING`.

        Checks the active batch before the in-flight one: the active
        batch holds the newer write when an address appears in both.
        """
        value = self._active_overlay.get(addr, MISSING)
        if value is not MISSING:
            return value
        return self._flushing_overlay.get(addr, MISSING)

    def lookup_at(self, addr: bytes, blk: int):
        """Buffered answer for ``get_at(addr, blk)``, or :data:`MISSING`.

        A buffered write is the floor answer only when the queried height
        reaches the block the write will commit at.
        """
        if blk >= self._next_height:
            value = self._active_overlay.get(addr, MISSING)
            if value is not MISSING:
                return value
        if self._flushing_height >= 0 and blk >= self._flushing_height:
            value = self._flushing_overlay.get(addr, MISSING)
            if value is not MISSING:
                return value
        return MISSING

    @property
    def buffered(self) -> int:
        """Puts currently buffered (active batch only)."""
        return len(self._active_items)

    # -- flushing -------------------------------------------------------------

    async def flush(self) -> Tuple[Digest, int]:
        """Group-commit the active batch; returns ``(root, height)``.

        With nothing buffered this is a read: the last committed root is
        returned (computed once from the engine if nothing was committed
        through this batcher yet).  Safe to call concurrently — flushes
        serialize and each batch commits exactly once.
        """
        async with self._flush_lock:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            if not self._active_items:
                if self.last_root is None:
                    self.last_root = await self._run(self.engine.root_digest)
                return self.last_root, self.last_height
            items = self._active_items
            overlay = self._active_overlay
            self._active_items = []
            self._active_overlay = {}
            self._flushing_overlay = overlay
            height = self._next_height
            self._flushing_height = height
            self._next_height = height + 1
            flush_started = time.perf_counter()
            try:
                root = await self._run(self._commit, height, items)
            except BaseException:
                # The engine rejected the block (e.g. a malformed write
                # slipped through): the batch is lost, but the overlay
                # must not keep answering for it.
                self._flushing_overlay = {}
                self._flushing_height = -1
                raise
            if self._flush_hist is not None:
                self._flush_hist.observe(time.perf_counter() - flush_started)
                self._batch_size_hist.observe(len(items))
            self.commits += 1
            self.batched_puts += len(items)
            self.last_root = root
            self.last_height = height
            if self._on_commit is not None:
                # The caches are reconciled here — before the overlay is
                # dropped — so no read can combine a stale cache entry
                # with a missing overlay.
                self._on_commit(overlay)
            self._flushing_overlay = {}
            self._flushing_height = -1
            if self.wal is not None:
                self._maybe_truncate_wal()
                if self._hub is not None and self._hub.subscribers:
                    # Ship only sealed-and-fsynced batches: a replica must
                    # never hold a write a crashed primary would fail to
                    # recover, or the two would silently diverge when the
                    # primary re-assigns the lost heights.  (Under the
                    # "none" policy no durability is promised anyway, so
                    # the batch ships as-is.)  A subscriber registering
                    # after this check reads the batch from the WAL in its
                    # catch-up scan — the COMMIT marker is already on disk.
                    await self._durable(self.last_commit_lsn)
                    self._hub.publish(height, items, root)
            return root, height

    def _maybe_truncate_wal(self) -> None:
        """Drop WAL segments the engine checkpoint now covers.

        Runs only when the *earliest* shard checkpoint advanced (a
        cascade landed); the deletes happen off-loop.  Deferred while a
        replication catch-up scan is reading segments — a delete landing
        mid-scan could remove heights that scan was promised (retried at
        the next commit; segments only cost disk meanwhile).
        """
        if self._hub is not None and self._hub.catchups_active:
            return
        checkpoints = self.engine.shard_checkpoints()
        floor = min(checkpoints)
        if floor <= self._wal_truncated_at:
            return
        previous, self._wal_truncated_at = self._wal_truncated_at, floor

        async def truncate() -> None:
            try:
                await self._run(self.wal.truncate, list(checkpoints))
            except Exception:
                # Best-effort: surviving segments only cost disk; rearm
                # so the next checkpoint advance retries the delete.
                self._wal_truncated_at = previous

        asyncio.get_running_loop().create_task(truncate())

    def _commit(self, height: int, items: List[Tuple[bytes, bytes]]) -> Digest:
        """One pooled call per group commit: the block, then its marker."""
        self.engine.begin_block(height)
        self.engine.put_many(items)
        root = self.engine.commit_block()
        if self.wal is not None:
            self.last_commit_lsn = self.wal.append_commit(height, root)
        return root

    async def close(self) -> None:
        """Flush what is buffered and refuse further puts."""
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        await self.flush()
