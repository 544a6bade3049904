"""The cluster manifest: one versioned document naming who owns what.

A :class:`ClusterManifest` maps every shard id to the ``host:port`` of
the :class:`~repro.server.ColeServer` currently serving it, plus the
control address of each node process.  Routing is crc32 partitioning
(:func:`shard_of`), so a key's shard id is deterministic across every
client and server without coordination.  Shard ``i`` of a node's
workspace, WAL and snapshot is the subdirectory :func:`shard_dirname`
names.

The manifest is **epoch-versioned**: any ownership change (a live shard
migration's cutover) produces a *new* manifest with ``epoch + 1`` via
:meth:`ClusterManifest.with_moved` — manifests are immutable values, so
a stale epoch is detectable by one integer comparison and a client can
adopt the newer of two manifests without field-by-field reconciliation.

Two distribution channels carry the same JSON document:

* a **static file** (``repro cluster init`` writes it, ``repro cluster
  migrate`` rewrites it atomically), and
* the ``Op.CLUSTER`` frame, answered by every cluster member — clients
  bootstrap from any one seed address and refresh after a ``MOVED``
  referral.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.common.errors import StorageError
from repro.core.manifest import MANIFEST_NAME
from repro.diskio import durable


def shard_of(addr: bytes, num_shards: int) -> int:
    """The index of the shard owning ``addr`` (0-based, stable).

    The route must be deterministic across processes, nodes and
    restarts, so it avoids Python's salted ``hash``: CRC32 over the
    address bytes is cheap on the per-put path and spreads hash-derived
    and uniform random addresses alike.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_shards == 1:
        return 0
    return zlib.crc32(addr) % num_shards


def shard_dirname(index: int) -> str:
    """The subdirectory name of shard ``index``."""
    return f"shard-{index:02d}"


def shard_dirs(root: str) -> List[str]:
    """Sorted names of the shard subdirectories of ``root`` (none when
    ``root`` does not exist)."""
    if not os.path.isdir(root):
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if name.startswith("shard-") and os.path.isdir(os.path.join(root, name))
    )


def node_shard_dirs(root: str) -> List[str]:
    """:func:`shard_dirs` of a cluster node's layout: none when ``root``
    is a single-engine workspace (it has a manifest of its own)."""
    return [] if os.path.isfile(os.path.join(root, MANIFEST_NAME)) else shard_dirs(root)


@dataclass(frozen=True)
class ShardAssignment:
    """Where one shard lives: the owning node and its data address."""

    node: str      # node name (key into ClusterManifest.nodes)
    address: str   # host:port of the ColeServer serving this shard


@dataclass(frozen=True)
class ClusterManifest:
    """Immutable, epoch-versioned cluster topology."""

    epoch: int
    num_shards: int
    #: node name -> control server ``host:port`` (the ADMIN endpoint).
    nodes: Mapping[str, str]
    #: shard id -> assignment; index ``i`` is shard ``i``.
    shards: Tuple[ShardAssignment, ...]

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise StorageError("a cluster needs at least one shard")
        if len(self.shards) != self.num_shards:
            raise StorageError(
                f"manifest names {len(self.shards)} shards but num_shards "
                f"is {self.num_shards}"
            )
        for shard_id, assignment in enumerate(self.shards):
            if assignment.node not in self.nodes:
                raise StorageError(
                    f"shard {shard_id} is assigned to unknown node "
                    f"{assignment.node!r}"
                )

    # -- routing --------------------------------------------------------------

    def shard_for(self, addr: bytes) -> int:
        """The shard id owning ``addr`` (:func:`shard_of`)."""
        return shard_of(addr, self.num_shards)

    def address_of(self, shard_id: int) -> str:
        return self.shards[shard_id].address

    def owner_address(self, addr: bytes) -> str:
        """Data ``host:port`` serving ``addr``."""
        return self.shards[self.shard_for(addr)].address

    def shards_of_node(self, node: str) -> Tuple[int, ...]:
        """Shard ids the named node serves."""
        return tuple(
            shard_id
            for shard_id, assignment in enumerate(self.shards)
            if assignment.node == node
        )

    # -- evolution ------------------------------------------------------------

    def with_moved(
        self, shard_id: int, node: str, address: str
    ) -> "ClusterManifest":
        """A new manifest (epoch + 1) with one shard reassigned.

        This is the cutover document of a live migration: every other
        assignment is carried over verbatim, so two manifests with the
        same epoch are byte-identical and a client can patch a single
        routing entry from a MOVED referral without losing the rest.
        """
        if not 0 <= shard_id < self.num_shards:
            raise StorageError(f"no shard {shard_id} in this manifest")
        if node not in self.nodes:
            raise StorageError(f"cannot move shard {shard_id} to unknown node {node!r}")
        shards = list(self.shards)
        shards[shard_id] = ShardAssignment(node=node, address=address)
        return ClusterManifest(
            epoch=self.epoch + 1,
            num_shards=self.num_shards,
            nodes=dict(self.nodes),
            shards=tuple(shards),
        )

    def with_addresses(self, bound: Mapping[int, str]) -> "ClusterManifest":
        """Same epoch, with shard data addresses patched in.

        Used when nodes bind ephemeral ports (tests, ``port 0``): the
        assignment topology is unchanged — only the addresses become
        concrete — so this is not an ownership change and the epoch
        stays put.
        """
        shards = list(self.shards)
        for shard_id, address in bound.items():
            shards[shard_id] = ShardAssignment(
                node=shards[shard_id].node, address=address
            )
        return ClusterManifest(
            epoch=self.epoch,
            num_shards=self.num_shards,
            nodes=dict(self.nodes),
            shards=tuple(shards),
        )

    def with_control(self, node: str, control: str) -> "ClusterManifest":
        """Same epoch, with one node's control address patched in."""
        nodes = dict(self.nodes)
        nodes[node] = control
        return ClusterManifest(
            epoch=self.epoch,
            num_shards=self.num_shards,
            nodes=nodes,
            shards=self.shards,
        )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "num_shards": self.num_shards,
            "nodes": dict(self.nodes),
            "shards": {
                str(shard_id): {
                    "node": assignment.node,
                    "address": assignment.address,
                }
                for shard_id, assignment in enumerate(self.shards)
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterManifest":
        try:
            num_shards = int(data["num_shards"])
            shard_map: Dict[int, ShardAssignment] = {
                int(shard_id): ShardAssignment(
                    node=entry["node"], address=entry["address"]
                )
                for shard_id, entry in data["shards"].items()
            }
            if sorted(shard_map) != list(range(num_shards)):
                raise StorageError(
                    f"manifest shard ids {sorted(shard_map)} are not "
                    f"0..{num_shards - 1}"
                )
            return cls(
                epoch=int(data["epoch"]),
                num_shards=num_shards,
                nodes=dict(data["nodes"]),
                shards=tuple(shard_map[i] for i in range(num_shards)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(f"malformed cluster manifest: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ClusterManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StorageError(f"malformed cluster manifest: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        """Write atomically and durably (``durable.replacing``): a reader
        never sees a half-written manifest."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with durable.replacing(path) as handle:
            handle.write(self.to_json().encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "ClusterManifest":
        with open(path, "r") as handle:
            return cls.from_json(handle.read())


def plan_manifest(
    num_nodes: int,
    num_shards: int,
    host: str = "127.0.0.1",
    base_port: int = 7450,
) -> ClusterManifest:
    """Epoch-0 manifest with round-robin shard placement.

    Node ``i`` gets control port ``base_port + 16*i`` and its shards get
    the ports after it — a deterministic layout ``repro cluster init``
    writes and ``repro cluster serve`` binds verbatim.
    """
    if num_nodes < 1:
        raise StorageError("a cluster needs at least one node")
    if num_shards < num_nodes:
        raise StorageError("cannot place fewer shards than nodes")
    nodes = {
        f"node-{i}": f"{host}:{base_port + 16 * i}" for i in range(num_nodes)
    }
    next_port = {i: base_port + 16 * i + 1 for i in range(num_nodes)}
    shards = []
    for shard_id in range(num_shards):
        owner = shard_id % num_nodes
        shards.append(
            ShardAssignment(
                node=f"node-{owner}", address=f"{host}:{next_port[owner]}"
            )
        )
        next_port[owner] += 1
    return ClusterManifest(
        epoch=0, num_shards=num_shards, nodes=nodes, shards=tuple(shards)
    )
