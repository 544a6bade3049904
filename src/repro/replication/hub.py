"""Primary-side WAL shipping: the replication hub.

One :class:`ReplicationHub` lives on a WAL-enabled primary server.  It
has two sources of truth and one consumer-facing shape:

* **Live feed** — after every group commit whose records are durable
  (the batcher fsyncs the WAL up to the COMMIT marker before publishing,
  so a replica can never hold a write the crashed primary would fail to
  recover), :meth:`publish` re-encodes the batch as WAL records — one
  PUTS record plus one COMMIT record — and pushes them to every
  subscriber queue.
* **Catch-up** — a fresh subscriber first receives the heights it missed,
  read straight from the primary's on-disk WAL (:meth:`catchup` groups
  the surviving PUTS records by height and pairs them with their COMMIT
  roots).  Registration happens *before* the scan, so a commit landing
  mid-scan is seen at least once — by the scan, the queue, or both; the
  consumer deduplicates by height, which is safe because heights only
  ever carry one batch.

**Availability floor**: WAL truncation deletes segments covered by the
engine checkpoint (``checkpoint_blk``), so heights at or below it are
only guaranteed to exist in committed runs, not in the WAL.  A
subscriber whose start height is below that floor is refused with
:class:`SnapshotRequiredError` — it must bootstrap from a newer snapshot
instead (heights *above* the floor are always fully present: a segment
holding any record above the checkpoint is never truncated).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Set, Tuple

from repro.common.errors import StorageError
from repro.server import protocol
from repro.wal.record import RecordType, encode_commit, encode_puts

#: One catch-up unit: ``(height, [raw WAL record bytes, ...])``.
Batch = Tuple[int, List[bytes]]


class SnapshotRequiredError(StorageError):
    """The subscriber is behind the WAL's availability floor."""

    def __init__(self, start_height: int, floor: int) -> None:
        super().__init__(
            f"replication history for heights ({start_height}, {floor}] may "
            f"be truncated; bootstrap the replica from a snapshot at height "
            f">= {floor}"
        )
        self.floor = floor


def encode_batch(height: int, items: List[Tuple[bytes, bytes]], root: bytes) -> List[bytes]:
    """One committed batch as raw WAL records: PUTS (if any) then COMMIT."""
    records: List[bytes] = []
    if items:
        records.append(encode_puts(height, items))
    records.append(encode_commit(height, bytes(root)))
    return records


class ReplicationHub:
    """Fan committed, durable batches out to replica subscriber queues.

    Event-loop confined on the publish/register side (the batcher's
    flush and the server's connection handlers both run on the server
    loop); :meth:`catchup` reads segment files and is meant to run on
    the server's thread pool.

    **Slow subscribers are evicted, not buffered forever**: a stream
    whose consumer stalls (blackholed connection, SIGSTOPped replica)
    stops draining its queue while every group commit keeps feeding it —
    an unbounded queue would grow primary memory without limit.  Past
    ``max_queue_batches`` the hub drops the queue and terminates its
    stream with the end sentinel; the replica reconnects and catches up
    from the WAL, which is the real retention buffer.
    """

    def __init__(self, engine, wal, max_queue_batches: int = 1024) -> None:
        self.engine = engine
        self.wal = wal
        self.max_queue_batches = max_queue_batches
        self._queues: Set[asyncio.Queue] = set()
        #: Catch-up scans currently reading segment files.  While any is
        #: active the batcher defers WAL truncation: a delete landing
        #: mid-scan could silently remove heights the subscriber was
        #: promised (its start passed the floor check against the
        #: pre-truncation checkpoints).  Mutated on the event loop only.
        self.catchups_active = 0
        # Accounting (the STATS "replication" section).
        self.subscribers_total = 0
        self.subscribers_evicted = 0
        self.batches_published = 0
        self.records_shipped = 0

    # -- subscriber registry --------------------------------------------------

    @property
    def subscribers(self) -> int:
        return len(self._queues)

    def register(self) -> asyncio.Queue:
        """Add a subscriber; live batches start queueing immediately."""
        queue: asyncio.Queue = asyncio.Queue()
        self._queues.add(queue)
        self.subscribers_total += 1
        return queue

    # -- the live feed --------------------------------------------------------

    def publish(
        self, height: int, items: List[Tuple[bytes, bytes]], root: bytes
    ) -> None:
        """Queue one durably-logged commit for every live subscriber.

        Subscribers whose queue has backed up past ``max_queue_batches``
        are evicted (end sentinel, then dropped) instead of buffering
        the store's entire recent write volume in primary memory.
        """
        if not self._queues:
            return
        batch: Batch = (height, encode_batch(height, items, root))
        evicted = []
        for queue in self._queues:
            if queue.qsize() >= self.max_queue_batches:
                evicted.append(queue)
                continue
            queue.put_nowait(batch)
        for queue in evicted:
            self._queues.discard(queue)
            queue.put_nowait(None)  # ends the stream once it ever drains
            self.subscribers_evicted += 1
        self.batches_published += 1

    # -- one subscriber's stream ----------------------------------------------

    async def serve(
        self, conn, start_height: int, committed: int, run: Callable[..., Awaitable]
    ) -> None:
        """Stream every committed batch above ``start_height`` to ``conn``
        until it closes or eviction ends the stream.  ``committed`` is the
        primary's committed height, read in this call's event-loop step;
        ``run(fn, *args)`` awaits ``fn`` on the server's thread pool."""
        try:
            self.check_start(start_height)
        except StorageError as exc:
            conn.write(protocol.encode_error(str(exc)))
            await conn.drain()
            return
        # No await may separate the caller's read of ``committed``, the
        # floor check, the registration and this flag: together they pin
        # every height above start_height — heights <= committed are
        # fully on disk and truncation defers while the flag is up;
        # later commits land in the queue.
        queue = self.register()
        self.catchups_active += 1
        try:
            try:
                conn.write(protocol.encode_repl_handshake(committed))
                await conn.drain()
                caught_up = iter(await run(self.catchup, start_height, committed))
            finally:
                self.catchups_active -= 1
            last = start_height
            while True:
                batch = next(caught_up, None) or await queue.get()
                if batch is None:  # evicted
                    return
                height, records = batch
                if height > last:  # a height both the scan and the queue hold ships once
                    conn.write(b"".join(map(protocol.encode_repl_record, records)))
                    self.records_shipped += len(records)
                    await conn.drain()
                    last = height
        finally:
            self._queues.discard(queue)

    def stats(self, applied_height: int) -> dict:
        """The ``replication`` STATS section of the primary at ``applied_height``."""
        return {
            "role": "primary",
            "subscribers": self.subscribers,
            "subscribers_total": self.subscribers_total,
            "subscribers_evicted": self.subscribers_evicted,
            "batches_published": self.batches_published,
            "records_shipped": self.records_shipped,
            "applied_height": applied_height,
            "availability_floor": self.engine.checkpoint_blk,
        }

    # -- catch-up -------------------------------------------------------------

    def check_start(self, start_height: int) -> None:
        """Refuse subscribers the WAL may no longer cover: the lowest
        start it can still serve completely is ``checkpoint_blk``."""
        floor = self.engine.checkpoint_blk
        if start_height < floor:
            raise SnapshotRequiredError(start_height, floor)

    def catchup(self, start_height: int, upto_height: int) -> List[Batch]:
        """Committed heights in ``(start_height, upto_height]`` from the
        on-disk WAL.

        ``upto_height`` must be the primary's committed height captured
        in the same event-loop step as the queue registration: heights at
        or below it were fully on disk before the scan started (``flush``
        appends the marker in the same loop step that advances
        ``last_height``), and heights above it commit after registration
        and arrive via the queue.  Runs file IO; call it on a worker
        thread.
        """
        puts_by_height: Dict[int, List[Tuple[bytes, bytes]]] = {}
        roots: Dict[int, bytes] = {}
        for record in self.wal.scan():
            if not start_height < record.height <= upto_height:
                continue
            if record.type == RecordType.PUTS:
                puts_by_height.setdefault(record.height, []).extend(record.items)
            elif record.type == RecordType.COMMIT:
                roots[record.height] = record.root
        return [
            (height, encode_batch(height, puts_by_height.get(height, []), root))
            for height, root in sorted(roots.items())
        ]
