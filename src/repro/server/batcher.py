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
the batcher appends a COMMIT marker and, whenever the engine's
checkpoint advanced, truncates the WAL segments it covers: the runs a
manifest names were synced when they were built.

The batcher is a primary server's ``committer`` (:mod:`repro.server.server`).

**Admission and crash-stop.**  A put whose address or value length is
not the engine's is refused before it is logged or buffered: acked, it
would be served, then wedge every later group commit.  A group commit
that fails anyway stops the batcher for good — its batch can never
commit — so from then on every write op is refused with an ERROR frame,
FLUSH raises and STATS reports ``batcher.commit_failed``, as a replica
freezes on a divergent root.

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
from repro.server import protocol
from repro.server.cache import MISSING


class WriteBatcher:
    """Buffers puts and commits them as one block per flush."""

    #: The frame every write op is answered with once a group commit
    #: failed; ``None`` while this primary takes writes.
    write_refusal: Optional[bytes] = None

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
        system = engine.params.system
        #: The ``(address, value)`` lengths every put must have.
        self._sizes = (system.addr_size, system.value_size)
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
        self._wal_truncated_at = engine.checkpoint_blk if wal else -1
        # The open block: puts buffered here commit at _next_height.
        self._next_height = engine.last_blk + 1
        self._active_items: List[Tuple[bytes, bytes]] = []
        self._active_overlay: Dict[bytes, bytes] = {}
        # The in-flight flush (at most one; _flush_lock serializes).
        self._flushing_overlay: Dict[bytes, bytes] = {}
        self._flushing_height = -1
        self._flush_lock = asyncio.Lock()
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Why puts are refused (shutdown, a failed commit); ``None``: taken.
        self._refusal: Optional[str] = None
        # Accounting (exposed via the STATS op).
        self.commits = 0
        self.batched_puts = 0
        self.multi_put_batches = 0
        self.size_flushes = 0
        self.timer_flushes = 0
        self.forced_flushes = 0
        self.commit_failed = False
        self.last_root: Optional[Digest] = None
        self.last_height = engine.last_blk
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

    # -- write side (event loop only) -----------------------------------------

    def put(self, addr: bytes, value: bytes) -> int:
        """Buffer one put; returns the block height it will commit at.

        A batch of one (:meth:`put_batch`), not counted as a MULTI_PUT.
        """
        return self._buffer([(addr, value)])

    def put_batch(self, items: List[Tuple[bytes, bytes]]) -> int:
        """Buffer one MULTI_PUT batch as a unit; returns its commit height.

        The whole batch joins the active block atomically — every key
        commits at the same height, which is what the MULTI_PUT response
        promises — and with a WAL attached the batch is one
        ``append_puts`` call (one record) instead of a record per key.
        """
        height = self._buffer(items)
        self.multi_put_batches += 1
        return height

    def _buffer(self, items: List[Tuple[bytes, bytes]]) -> int:
        """Buffer ``items`` into the open block; returns its height.

        With a WAL attached, their record is appended here — before the
        caller can ack — and :attr:`last_put_lsn` is the LSN whose
        durability the ack must wait for (policy-dependent; the server's
        group syncer handles that).  One malformed item refuses them all.
        """
        if self._refusal is not None:
            raise StorageError(self._refusal)
        addr_size, value_size = sizes = self._sizes
        for addr, value in items:
            if (len(addr), len(value)) != sizes:
                raise StorageError(
                    f"address must be {addr_size} bytes and value {value_size} bytes"
                )
        height = self._next_height
        # WAL first, buffer second: a failed append must leave nothing
        # behind — a buffered-but-unlogged put would commit, be served,
        # and then vanish on recovery.  The reverse ambiguity (logged
        # but errored to the client) is the standard one: recovery may
        # resurface a write whose response was lost.
        if self.wal is not None:
            self.last_put_lsn = self.wal.append_puts(items, height)
        self._active_items.extend(items)
        self._active_overlay.update(items)
        if len(self._active_items) >= self.max_batch:
            self.size_flushes += 1
            self._spawn_flush()
        elif self._timer is None:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_later(self.max_delay, self._on_timer)
        return height

    def _on_timer(self) -> None:
        self._timer = None
        if self._active_items and self._refusal is None:
            self.timer_flushes += 1
            self._spawn_flush()

    def _spawn_flush(self) -> None:
        task = asyncio.get_running_loop().create_task(self.flush())
        # A failed commit is recorded by flush() itself (commit_failed).
        task.add_done_callback(lambda done: done.cancelled() or done.exception())

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

    def lookup_many(self, addrs: List[bytes]) -> list:
        """:meth:`lookup` of each address, in order; with nothing
        buffered, every answer is :data:`MISSING` without a probe."""
        if not (self._active_overlay or self._flushing_overlay):
            return [MISSING] * len(addrs)
        lookup = self.lookup
        return [lookup(addr) for addr in addrs]

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

    # -- flushing -------------------------------------------------------------

    async def root(self) -> Tuple[Digest, int]:
        """The last committed ``(root, height)``, committing nothing (the
        root is computed once from the engine if nothing was committed
        through this batcher yet)."""
        if self.last_root is None:
            self.last_root = await self._run(self.engine.root_digest)
        return self.last_root, self.last_height

    async def flush(self) -> Tuple[Digest, int]:
        """Group-commit the active batch; returns ``(root, height)``.

        With nothing buffered this is :meth:`root`.  Safe to call
        concurrently — flushes serialize and each batch commits exactly
        once.  After a failed commit it raises.
        """
        async with self._flush_lock:
            if self.commit_failed:
                raise StorageError(self._refusal)
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            if not self._active_items:
                return await self.root()
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
            except BaseException as exc:
                # The batch can never commit, nor can anything after it:
                # stop taking writes, and stop answering for the buffered
                # ones.
                self._stop(f"group commit of block {height} failed ({exc!r}); "
                           "this server takes no more writes")
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
                    # Ship only sealed-and-synced batches: a replica must
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

    def _stop(self, reason: str) -> None:
        """The crash-stop after a failed commit (module docstring)."""
        self.commit_failed = True
        self._refusal = reason
        self.write_refusal = protocol.encode_error(f"StorageError: {reason}")
        self._active_items, self._active_overlay = [], {}
        self._flushing_overlay, self._flushing_height = {}, -1

    def _maybe_truncate_wal(self) -> None:
        """Drop WAL segments the engine checkpoint now covers.

        Runs only when the engine checkpoint advanced (a cascade
        landed), off-loop; the runs the manifest names are already
        synced.  Deferred while a replication catch-up scan is reading
        segments — a delete landing mid-scan could remove heights that
        scan was promised (retried at the next commit; segments only
        cost disk meanwhile).  The delete stops at ``floor``, the
        checkpoint read here, even when the manifest is newer by then:
        a subscriber registering while the task is in flight was
        promised every height above ``floor``.
        """
        if self._hub is not None and self._hub.catchups_active:
            return
        floor = self.engine.checkpoint_blk
        if floor <= self._wal_truncated_at:
            return
        previous, self._wal_truncated_at = self._wal_truncated_at, floor

        async def truncate() -> None:
            try:
                await self._run(self.wal.truncate, floor)
            except Exception:
                # Best-effort: surviving segments only cost disk; rearm
                # so the next checkpoint advance retries the delete.
                self._wal_truncated_at = previous

        asyncio.get_running_loop().create_task(truncate())

    def _commit(self, height: int, items: List[Tuple[bytes, bytes]]) -> Digest:
        """One pooled call per group commit: the block, its marker, and
        a WAL seal when the commit advanced the engine checkpoint."""
        checkpoint = self.engine.checkpoint_blk
        self.engine.begin_block(height)
        self.engine.put_many(items)
        root = self.engine.commit_block()
        if self.wal is not None:
            self.last_commit_lsn = self.wal.append_commit(height, root)
            if self.engine.checkpoint_blk > checkpoint:
                self.wal.seal()
        return root

    # -- the committer's serving surface --------------------------------------

    async def subscribe(self, conn, start_height: int) -> None:
        """Serve one replica's stream through the hub until ``conn`` closes."""
        if self._hub is not None:
            return await self._hub.serve(conn, start_height, self.last_height, self._run)
        refusal = "replication requires a WAL-enabled primary (serve with --wal)"
        conn.write(protocol.encode_error(refusal))
        await conn.drain()

    def stats(self) -> dict:
        """This primary's STATS sections: the open batch, the group-commit
        counters and, with a hub, the ``replication`` section."""
        commits = self.commits
        return {
            "open_height": self._next_height,
            "buffered_puts": len(self._active_items),
            "batcher": {
                "commits": commits,
                "batched_puts": self.batched_puts,
                "avg_batch": self.batched_puts / commits if commits else 0.0,
                "size_flushes": self.size_flushes,
                "timer_flushes": self.timer_flushes,
                "forced_flushes": self.forced_flushes,
                "multi_put_batches": self.multi_put_batches,
                "commit_failed": self.commit_failed,
            },
            "replication": None if self._hub is None else self._hub.stats(self.last_height),
        }

    async def close(self) -> None:
        """Flush what is buffered and refuse further puts."""
        if self.commit_failed:
            return
        self._refusal = "server is shutting down"
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        await self.flush()
