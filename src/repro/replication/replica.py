"""Replica-side stream tailing: subscribe, apply, verify, reconnect.

One :class:`ReplicaApplier` runs as a task on the replica server's event
loop.  It connects to the primary, subscribes with the replica's applied
height, and applies each streamed batch through the engine's ordinary
block lifecycle on the server's thread pool — exactly the path a primary
commit takes, which is what makes the streamed COMMIT root a
byte-identical oracle: COLE's commit checkpoints are deterministic in
the batches and heights alone, so any divergence is corruption, not
timing.

Failure handling:

* **Connection loss / primary down** — retry forever with a fixed delay,
  re-subscribing from the current applied height.  A primary that was
  ``kill -9``-ed comes back (its own WAL recovery re-marks the replayed
  commits), and the replica resumes where it left off.
* **Root divergence** — fatal.  The replica's engine has committed a
  block whose root disagrees with the primary's; no amount of retrying
  un-commits it.  The applier freezes *before* advancing any
  bookkeeping: the divergent block is never reported as applied (ROOT
  and STATS keep naming the last verified commit, the caches are not
  reconciled), the error is recorded, and STATS flags ``diverged`` until
  an operator re-bootstraps.
* **Duplicate heights** (catch-up/live overlap, primary re-marking after
  recovery) — skipped by height, with the recorded root cross-checked
  against the replica's own when the heights coincide.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from repro.common.errors import StorageError
from repro.server import protocol
from repro.server.client import ServerClient
from repro.wal.record import RecordType, scan_records


class ReplicaApplier:
    """Tail one primary's replication stream into the local engine."""

    def __init__(
        self,
        server,
        primary_host: str,
        primary_port: int,
        retry_delay: float = 0.5,
        wal=None,
    ) -> None:
        """``server`` is the replica-mode :class:`~repro.server.ColeServer`
        that owns the engine, the thread pool, and the read caches this
        applier reconciles on every applied commit.

        ``wal`` (optional, cluster migration only) is a *local*
        :class:`~repro.wal.WriteAheadLog` every applied batch is mirrored
        into — PUTS before the apply, COMMIT after the root verifies —
        so a catch-up replica about to be promoted to primary can
        recover from its own disk through the ordinary ``replay_wal``
        path (idempotent: replay skips heights the engine already has).
        """
        self.server = server
        self.primary_host = primary_host
        self.primary_port = primary_port
        self.retry_delay = retry_delay
        self.wal = wal
        engine = server.engine
        #: Height of the last block applied to the local engine.
        self.applied_height = engine.last_blk
        #: Root of the last applied block (None until the first apply).
        self.last_root: Optional[bytes] = None
        #: Root of the state the applier started from (set as it starts):
        #: the last verified commit until a block applies — ROOT names it
        #: even when the first block diverges.
        self.start_root: Optional[bytes] = None
        #: Highest primary height this replica has heard of (handshake +
        #: stream); ``- applied_height`` is the lag in blocks.
        self.primary_height = self.applied_height
        self.connected = False
        self.diverged = False
        self.last_error: Optional[str] = None
        # Accounting (the STATS "replication" section).
        self.records_received = 0
        self.batches_applied = 0
        self.subscribes = 0

    @property
    def primary_addr(self) -> str:
        return f"{self.primary_host}:{self.primary_port}"

    @property
    def lag_blocks(self) -> int:
        return max(0, self.primary_height - self.applied_height)

    def stats(self) -> dict:
        return {
            "role": "replica",
            "primary": self.primary_addr,
            "connected": self.connected,
            "diverged": self.diverged,
            "applied_height": self.applied_height,
            "primary_height": self.primary_height,
            "lag_blocks": self.lag_blocks,
            "stream_offset": self.records_received,
            "batches_applied": self.batches_applied,
            "subscribes": self.subscribes,
            "last_error": self.last_error,
        }

    # -- the tailing loop -----------------------------------------------------

    async def run(self) -> None:
        """Stream until cancelled (or diverged); reconnect on any failure."""
        self.start_root = bytes(await self.server._run(self.server.engine.root_digest))
        while not self.diverged:
            try:
                await self._stream_once()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — record, retry
                self.last_error = f"{type(exc).__name__}: {exc}"
            finally:
                self.connected = False
            if self.diverged:
                return
            await asyncio.sleep(self.retry_delay)

    async def _stream_once(self) -> None:
        """One subscription: the handshake, then records until the
        connection ends (always by an error: the stream has no end)."""
        async with ServerClient(self.primary_host, self.primary_port) as primary:
            self.subscribes += 1
            bodies = primary.stream(protocol.encode_repl_subscribe(self.applied_height))
            # Raises on ERROR (e.g. snapshot-required) and NOT_PRIMARY.
            handshake = protocol.decode_repl_handshake(await bodies.__anext__())
            self.primary_height = max(self.primary_height, handshake)
            self.connected = True
            self.last_error = None
            pending: Dict[int, List[Tuple[bytes, bytes]]] = {}
            async for body in bodies:
                record = self._decode(protocol.decode_repl_record(body))
                self.records_received += 1
                await self._consume(record, pending)

    @staticmethod
    def _decode(record_bytes: bytes):
        result = scan_records(record_bytes)
        if result.torn or len(result.records) != 1:
            raise StorageError(
                f"malformed replication frame: {result.anomaly or 'record count'}"
            )
        return result.records[0]

    async def _consume(self, record, pending) -> None:
        if record.type == RecordType.PUTS:
            if record.height > self.applied_height:
                pending.setdefault(record.height, []).extend(record.items)
            return
        if record.type != RecordType.COMMIT:
            raise StorageError(f"unexpected record type {record.type} in stream")
        self.primary_height = max(self.primary_height, record.height)
        if record.height <= self.applied_height:
            pending.pop(record.height, None)
            # A duplicate of the block we just applied doubles as a
            # cross-check — a primary that recovered to *different*
            # contents at this height must not go unnoticed.
            if (
                record.height == self.applied_height
                and self.last_root is not None
                and bytes(record.root) != self.last_root
            ):
                self._fail_diverged(record.height, record.root, self.last_root)
            return
        items = pending.pop(record.height, [])
        if self.wal is not None and items:
            # Mirror before applying: a crash between the append and the
            # apply leaves an uncommitted tail that recovery replays
            # into the engine — never an applied block the WAL missed.
            # (Executor hop: the append is a write syscall, and the
            # applier shares the loop with the replica's read traffic.)
            await self.server._run(self.wal.append_puts, items, record.height)
        apply_started = time.perf_counter()
        root = await self.server._run(self._apply, record.height, items)
        metrics = getattr(self.server, "metrics", None)
        if metrics is not None:
            metrics.histogram(
                "repro_replica_apply_seconds",
                help="Primary batch apply latency on the replica",
            ).observe(time.perf_counter() - apply_started)
        if bytes(record.root) != bytes(root):
            # Verify before any bookkeeping advances: a diverged block
            # must not become the reported applied height/root or touch
            # the caches — ROOT and STATS keep naming the last
            # *verified* commit while the applier freezes.
            self._fail_diverged(record.height, record.root, root)
        if self.wal is not None:
            await self.server._run(self.wal.append_commit, record.height, bytes(root))
        self.applied_height = record.height
        self.last_root = bytes(root)
        self.batches_applied += 1
        self.server._committed(dict(items))

    def _apply(self, height: int, items) -> bytes:
        engine = self.server.engine
        engine.begin_block(height)
        if items:
            engine.put_many(items)
        return engine.commit_block()

    def _fail_diverged(self, height: int, primary_root, local_root) -> None:
        self.diverged = True
        self.last_error = (
            f"state divergence at height {height}: primary root "
            f"{bytes(primary_root).hex()[:16]} != local root "
            f"{bytes(local_root).hex()[:16]}"
        )
        raise StorageError(self.last_error)
