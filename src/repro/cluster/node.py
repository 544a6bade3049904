"""One cluster node: a shard group of ColeServers plus a control server.

A :class:`ClusterNode` hosts one :class:`~repro.server.ColeServer` — its
own :class:`~repro.core.storage.Cole` engine and its own WAL — **per
shard it owns**, all on one event loop (one *process* per node in a real
deployment: ``repro cluster serve``).  Making each shard a full
WAL-enabled primary is the load-bearing choice of the whole design: a
shard is then exactly the thing the replication machinery already knows
how to snapshot, stream, and verify, so live migration composes from
parts PR 3/4 built instead of growing a parallel state-transfer path.

The node also runs a small **control server** speaking the same frame
protocol, answering ``Op.CLUSTER`` (the manifest) and ``Op.ADMIN`` (a
JSON command: status / snapshot / adopt / cutover / promote /
set_manifest).  Migration is driven entirely through these commands —
see :mod:`repro.cluster.migrate` for the coordinator and DESIGN.md
"Cluster & Migration" for the cutover ordering proof.

Each shard server carries a :class:`ShardRole`, the hook
:class:`~repro.server.ColeServer` consults before dispatching any op:

* a request for a key this shard does not own (a client with a stale or
  absent manifest) answers ``MOVED`` naming the owner;
* after a migration cutover every data op answers ``MOVED`` naming the
  new owner — the server keeps running as a *moved husk* so stale
  clients are referred instead of timing out, and so the replication
  stream stays available until the target confirms promotion.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.manifest import ClusterManifest
from repro.common.errors import StorageError
from repro.server import protocol
from repro.server.eventloop import LoopThread
from repro.server.protocol import Op, parse_address
from repro.server.server import ColeServer, Connection, ServerConfig
from repro.sharding import shard_dirname

#: Migration phase -> STATS ``cluster.phase_code`` (``repro_cluster_migration_phase``).
PHASE_CODES = {
    "serving": 0,
    "snapshot": 1,
    "catchup": 2,
    "promoting": 3,
    "moved": 4,
}


class ShardRole:
    """One shard server's view of its place in the cluster.

    :class:`~repro.server.ColeServer` calls :meth:`referral_for` before
    dispatching; everything else (phase, counters) feeds its STATS section.
    """

    def __init__(self, node: "ClusterNode", shard_id: int) -> None:
        self.node = node
        self.shard_id = shard_id
        #: Migration phase of this shard on this node (PHASE_CODES).
        self.phase = "serving"
        #: Set at cutover: every data op refers here from now on.
        self.moved_to: Optional[str] = None
        self.moved_epoch = 0
        #: MOVED referrals answered (stale clients + post-cutover traffic).
        self.moved_referrals = 0

    @property
    def manifest(self) -> ClusterManifest:
        return self.node.manifest

    def manifest_json(self) -> bytes:
        return self.manifest.to_json().encode("utf-8")

    def referral_for(self, op: int, args: tuple) -> Optional[bytes]:
        """A MOVED response when this server must not answer ``op``.

        Two referral sources, checked in order: the shard as a whole has
        moved (post-cutover), or the request's key belongs to a
        different shard (a client routing with a stale or absent
        manifest).  Only data ops (the ``read`` / ``write`` classes of
        the op table) obey either: control ops keep answering on a moved
        husk so operators and the migration coordinator can still
        observe it.  The key check covers every address the op's table
        row routes by; SCAN / FLUSH route by none — a cluster client
        legitimately fans them over every shard.
        """
        spec = protocol.OPS[op]
        if spec.kind not in protocol.DATA_CLASSES:
            return None
        if self.moved_to is not None:
            self.moved_referrals += 1
            return protocol.encode_moved(
                self.moved_to, self.moved_epoch, self.shard_id
            )
        if spec.addresses is None:
            return None
        manifest = self.manifest
        for addr in spec.addresses(args):
            owner = manifest.shard_for(addr)
            if owner != self.shard_id:
                self.moved_referrals += 1
                return protocol.encode_moved(
                    manifest.address_of(owner), manifest.epoch, owner
                )
        return None

    def stats(self) -> dict:
        """The ``cluster`` STATS section of this shard's server."""
        return {
            "node": self.node.name,
            "shard_id": self.shard_id,
            "manifest_epoch": self.manifest.epoch,
            "phase": self.phase,
            "phase_code": PHASE_CODES[self.phase],
            "moved_to": self.moved_to,
            "moved_referrals": self.moved_referrals,
        }


@dataclass
class _ShardServing:
    """Everything one hosted shard owns: engine, WAL, server, role."""

    shard_id: int
    engine: object
    wal: object
    server: ColeServer
    role: ShardRole

    @property
    def address(self) -> str:
        return f"{self.server.host}:{self.server.port}"


class ClusterNode:
    """Host the shard servers assigned to ``name`` plus the control port."""

    def __init__(
        self,
        workspace: str,
        name: str,
        manifest: ClusterManifest,
        config: Optional[ServerConfig] = None,
        mem_capacity: int = 512,
        wal_sync: str = "batch",
        ephemeral: bool = False,
    ) -> None:
        """``ephemeral=True`` binds every port as 0 regardless of the
        manifest addresses (in-process tests); the caller then reads the
        actual addresses back and patches a concrete manifest in via
        ``set_manifest``."""
        if name not in manifest.nodes:
            raise StorageError(f"manifest names no node {name!r}")
        self.workspace = workspace
        self.name = name
        self.manifest = manifest
        self.config = config
        self.mem_capacity = mem_capacity
        self.wal_sync = wal_sync
        self.ephemeral = ephemeral
        self.shards: Dict[int, _ShardServing] = {}
        self.control_host: Optional[str] = None
        self.control_port: Optional[int] = None
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._control_conns: set = set()
        self._control_tasks: set = set()  # ADMIN commands in flight
        self._started_monotonic = 0.0

    # -- lifecycle ------------------------------------------------------------

    @property
    def control_address(self) -> str:
        return f"{self.control_host}:{self.control_port}"

    def data_addresses(self) -> Dict[int, str]:
        """shard id -> actually-bound ``host:port`` of its data server."""
        return {
            shard_id: serving.address for shard_id, serving in self.shards.items()
        }

    async def start(self) -> Tuple[str, int]:
        """Open engines, bind shard servers + control; returns the bound
        control ``(host, port)``."""
        self._started_monotonic = time.monotonic()
        try:
            for shard_id in self.manifest.shards_of_node(self.name):
                await self._start_shard_primary(shard_id)
            host, port = parse_address(self.manifest.nodes[self.name])
            if self.ephemeral:
                port = 0
            self._control_server = await asyncio.get_running_loop().create_server(
                lambda: Connection(
                    self._control, self._control_conns, self._control_tasks
                ),
                host,
                port,
            )
            sock = self._control_server.sockets[0]
            self.control_host, self.control_port = sock.getsockname()[:2]
        except BaseException:
            await self.stop()
            raise
        return self.control_host, self.control_port

    async def _open_store(self, shard_id: int):
        """Open (creating on first use) one shard's engine and WAL.

        Construction replays manifests and WAL tails from disk —
        executor work, never event-loop work.
        """
        from repro.common.params import ColeParams
        from repro.core import Cole
        from repro.wal import WriteAheadLog

        directory = os.path.join(self.workspace, shard_dirname(shard_id))

        def _open():
            os.makedirs(directory, exist_ok=True)
            engine = Cole(
                directory,
                ColeParams(async_merge=True, mem_capacity=self.mem_capacity),
            )
            wal = WriteAheadLog(
                os.path.join(directory, "wal"),
                num_shards=1,
                sync_policy=self.wal_sync,
            )
            return engine, wal

        return await asyncio.get_running_loop().run_in_executor(None, _open)

    async def _serve_shard(
        self, shard_id: int, engine, wal, host: str, port: int, phase: str,
        replica_of: Optional[Tuple[str, int]],
    ) -> _ShardServing:
        """Start one shard's server — a WAL-enabled primary, or with
        ``replica_of`` a catch-up replica mirroring into ``wal`` — and
        register it; a failed bind closes the store it was handed."""
        shard_role = ShardRole(self, shard_id)
        shard_role.phase = phase
        if replica_of is None:
            server = ColeServer(
                engine, host, port, self.config, wal=wal, cluster=shard_role
            )
        else:
            server = ColeServer(
                engine, host, port, self.config,
                replica_of=replica_of, replica_wal=wal, cluster=shard_role,
            )
        try:
            await server.start()
        except BaseException:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, wal.close)
            await loop.run_in_executor(None, engine.close)
            raise
        serving = _ShardServing(
            shard_id=shard_id,
            engine=engine,
            wal=wal,
            server=server,
            role=shard_role,
        )
        self.shards[shard_id] = serving
        return serving

    async def _start_shard_primary(self, shard_id: int) -> _ShardServing:
        engine, wal = await self._open_store(shard_id)
        host, port = parse_address(self.manifest.address_of(shard_id))
        return await self._serve_shard(
            shard_id, engine, wal, host, 0 if self.ephemeral else port,
            "serving", None,
        )

    async def stop(self) -> None:
        """Stop every server and close every engine/WAL (idempotent)."""
        if self._control_server is not None:
            self._control_server.close()
            await self._control_server.wait_closed()
            self._control_server = None
        for conn in list(self._control_conns):
            conn.close()
        loop = asyncio.get_running_loop()
        for serving in list(self.shards.values()):
            await serving.server.stop()

            def _close(serving: "_ShardServing" = serving) -> None:
                # Best-effort shutdown: a close failure only costs disk
                # (the WAL tail and run files replay on next open), and
                # the remaining shards must still get their turn.
                try:
                    serving.wal.close()
                except (StorageError, OSError):
                    pass
                try:
                    serving.engine.close()
                except (StorageError, OSError):
                    pass

            await loop.run_in_executor(None, _close)
        self.shards.clear()

    # -- control protocol -----------------------------------------------------

    async def _control(self, op: int, args: tuple) -> bytes:
        """The control port's dispatch: one request, its response frame."""
        if op == Op.CLUSTER:
            return protocol.encode_blob_response(
                self.manifest.to_json().encode("utf-8")
            )
        if op == Op.ADMIN:
            result = await self._admin(json.loads(args[0]))
            return protocol.encode_blob_response(json.dumps(result).encode("utf-8"))
        return protocol.encode_error(
            "the control port answers CLUSTER and ADMIN only"
        )

    async def _admin(self, command: dict) -> dict:
        """Dispatch one ADMIN command (the migration RPC surface)."""
        cmd = command.get("cmd")
        if cmd == "status":
            return self.status()
        if cmd == "set_manifest":
            return self._set_manifest(command["manifest"])
        if cmd == "snapshot":
            return await self._admin_snapshot(
                int(command["shard"]), command["dest"]
            )
        if cmd == "adopt":
            return await self._admin_adopt(
                int(command["shard"]), command["snapshot"], command["source"]
            )
        if cmd == "migration_status":
            return self._migration_status(int(command["shard"]))
        if cmd == "cutover":
            return await self._admin_cutover(
                int(command["shard"]),
                command["to_address"],
                int(command["epoch"]),
            )
        if cmd == "promote":
            return await self._admin_promote(
                int(command["shard"]),
                int(command["height"]),
                command["root"],
                command.get("manifest"),
                float(command.get("timeout", 30.0)),
            )
        if cmd == "reinstate":
            return self._admin_reinstate(int(command["shard"]))
        raise StorageError(f"unknown admin command {cmd!r}")

    def status(self) -> dict:
        return {
            "node": self.name,
            "manifest_epoch": self.manifest.epoch,
            "uptime_s": time.monotonic() - self._started_monotonic,
            "shards": {
                str(shard_id): {
                    "address": serving.address,
                    "phase": serving.role.phase,
                    "moved_to": serving.role.moved_to,
                    "moved_referrals": serving.role.moved_referrals,
                    "height": (
                        serving.server.batcher.last_height
                        if serving.server.batcher is not None
                        else serving.server.replica.applied_height
                    ),
                }
                for shard_id, serving in sorted(self.shards.items())
            },
        }

    def _set_manifest(self, data: dict) -> dict:
        manifest = ClusterManifest.from_dict(data)
        # Monotonic adoption: a delayed rebroadcast of an older epoch
        # must not roll routing back mid-migration.
        if manifest.epoch >= self.manifest.epoch:
            self.manifest = manifest
        return {"epoch": self.manifest.epoch}

    def _serving(self, shard_id: int) -> _ShardServing:
        serving = self.shards.get(shard_id)
        if serving is None:
            raise StorageError(f"node {self.name} does not host shard {shard_id}")
        return serving

    # -- migration: source side ----------------------------------------------

    async def _admin_snapshot(self, shard_id: int, dest: str) -> dict:
        """Phase 1 (source): a consistent snapshot of the moving shard.

        The batcher flushes first so every *acked* write is in the
        engine — :func:`~repro.wal.snapshot_store` records the root a
        restore must reproduce, and buffered-but-uncommitted puts would
        make the restored store recover past it.
        """
        serving = self._serving(shard_id)
        if serving.server.batcher is None:
            raise StorageError(f"shard {shard_id} is not a primary here")
        serving.role.phase = "snapshot"
        try:
            from repro.wal import snapshot_store

            await serving.server.batcher.flush()
            meta = await serving.server._run(
                snapshot_store, serving.engine, dest, serving.wal
            )
        finally:
            serving.role.phase = "serving"
        return {
            "dest": dest,
            "root_digest": meta["root_digest"],
            "files": len(meta["files"]),
        }

    async def _admin_cutover(
        self, shard_id: int, to_address: str, epoch: int
    ) -> dict:
        """Phase 3 (source): stop owning the shard, hand off authority.

        Ordering is the zero-loss argument (DESIGN.md): ``moved_to`` is
        set *first* — dispatch is synchronous between the referral check
        and the batcher insert, so after this line no new write can ack
        here — then the batcher flushes, committing every already-acked
        write and publishing it to the replication hub the target is
        subscribed to.  The returned ``(height, root)`` is the exact
        state the target must reach before promotion.
        """
        serving = self._serving(shard_id)
        if serving.server.batcher is None:
            raise StorageError(f"shard {shard_id} is not a primary here")
        serving.role.moved_to = to_address
        serving.role.moved_epoch = epoch
        serving.role.phase = "moved"
        server = serving.server
        root, height = await server.batcher.flush()
        await server.wal_syncer.durable(server.batcher.last_commit_lsn)
        return {"height": height, "root": bytes(root).hex()}

    def _admin_reinstate(self, shard_id: int) -> dict:
        """Abort path: a failed promotion hands authority back."""
        serving = self._serving(shard_id)
        serving.role.moved_to = None
        serving.role.moved_epoch = 0
        serving.role.phase = "serving"
        return {"shard": shard_id, "phase": "serving"}

    # -- migration: target side ----------------------------------------------

    async def _admin_adopt(
        self, shard_id: int, snapshot: str, source: str
    ) -> dict:
        """Phase 2 (target): bootstrap the shard and start catching up.

        Restores the snapshot (engine files + the source WAL's tail)
        into this node's shard directory, replays the tail, then serves
        the shard as a *replica of the source* — the stock
        :class:`~repro.replication.ReplicaApplier` does the catch-up —
        with a local ``replica_wal`` mirroring every applied batch so
        the state survives a crash-and-promote (see server.py).
        """
        from repro.wal import replay_wal, restore_store

        if shard_id in self.shards:
            raise StorageError(
                f"node {self.name} already hosts shard {shard_id}"
            )
        directory = os.path.join(self.workspace, shard_dirname(shard_id))
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, restore_store, snapshot, directory)
        engine, wal = await self._open_store(shard_id)
        await loop.run_in_executor(None, replay_wal, engine, wal)
        host, _ = parse_address(self.manifest.nodes[self.name])
        serving = await self._serve_shard(
            shard_id,
            engine,
            wal,
            host,
            0,  # ephemeral: the new manifest records the actual port
            "catchup",
            parse_address(source),
        )
        return {
            "address": serving.address,
            "height": serving.server.replica.applied_height,
        }

    def _migration_status(self, shard_id: int) -> dict:
        serving = self._serving(shard_id)
        replica = serving.server.replica
        if replica is None:
            return {
                "phase": serving.role.phase,
                "applied_height": serving.server.batcher.last_height,
                "lag_blocks": 0,
                "connected": False,
                "diverged": False,
            }
        return {**replica.stats(), "phase": serving.role.phase}

    async def _admin_promote(
        self,
        shard_id: int,
        height: int,
        root_hex: str,
        manifest_data: Optional[dict],
        timeout: float,
    ) -> dict:
        """Phase 4 (target): become the shard's primary.

        Waits until the applier has applied (and root-verified) the
        source's cutover height, then swaps the replica server for a
        WAL-enabled primary on the *same engine, same WAL, same port* —
        the replica WAL already holds every applied batch, so the
        promoted server's ordinary ``replay_wal`` recovery path covers a
        crash at any point after this returns.
        """
        serving = self._serving(shard_id)
        replica = serving.server.replica
        if replica is None:
            raise StorageError(f"shard {shard_id} is not in catch-up here")
        serving.role.phase = "promoting"
        deadline = time.monotonic() + timeout
        while replica.applied_height < height:
            if replica.diverged:
                raise StorageError(
                    f"cannot promote diverged shard {shard_id}: "
                    f"{replica.last_error}"
                )
            if time.monotonic() > deadline:
                raise StorageError(
                    f"shard {shard_id} catch-up stalled at height "
                    f"{replica.applied_height} < cutover {height}"
                )
            await asyncio.sleep(0.01)
        if (
            replica.applied_height == height
            and replica.last_root is not None
            and replica.last_root.hex() != root_hex
        ):
            raise StorageError(
                f"shard {shard_id} root mismatch at cutover height {height}"
            )
        host, port = serving.server.host, serving.server.port
        await serving.server.stop()
        if serving.wal.sync_policy != "none":
            # The replica server (and its executor) is stopped; fsync on
            # the default executor so the control loop stays responsive.
            await asyncio.get_running_loop().run_in_executor(
                None, serving.wal.sync
            )
        if manifest_data is not None:
            self._set_manifest(manifest_data)
        del self.shards[shard_id]
        promoted = await self._serve_shard(
            shard_id, serving.engine, serving.wal, host, port, "serving", None
        )
        return {
            "address": promoted.address,
            "height": promoted.server.batcher.last_height,
        }


class NodeThread(LoopThread):
    """A :class:`ClusterNode` on its own event-loop thread.

    The in-process deployment shape for tests and the demo — the cluster
    analogue of :class:`~repro.server.ServerThread`.  ``start`` blocks
    until every port is bound and returns the control ``(host, port)``.
    """

    def __init__(self, node: ClusterNode) -> None:
        self.node = node
        super().__init__(node, f"cluster-{node.name}")
