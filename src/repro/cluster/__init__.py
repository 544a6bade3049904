"""Cluster serving: one shard group per server process, live migration.

The pieces, in dependency order:

* :mod:`repro.cluster.manifest` — the epoch-versioned topology document
  (``shard_id -> host:port``) every client and node routes by.
* :mod:`repro.cluster.node` — :class:`ClusterNode`, hosting one
  WAL-enabled :class:`~repro.server.ColeServer` per owned shard plus the
  control port (``Op.CLUSTER`` / ``Op.ADMIN``), and :class:`ShardRole`,
  the per-server hook answering ``MOVED`` referrals.
* :mod:`repro.cluster.client` — :class:`ClusterClient`, the
  manifest-routed :class:`~repro.server.KVClient` (reached through
  ``repro.server.connect(manifest=...)``).
* :mod:`repro.cluster.migrate` — :func:`migrate_shard`, the live
  shard-move coordinator (snapshot -> catch-up -> cutover -> promote).
"""

from repro.cluster.client import ClusterClient, admin_call, fetch_manifest
from repro.cluster.manifest import (
    ClusterManifest,
    ShardAssignment,
    plan_manifest,
)
from repro.cluster.migrate import migrate_shard, migrate_shard_sync
from repro.cluster.node import PHASE_CODES, ClusterNode, NodeThread, ShardRole
from repro.sharding import shard_dirname

__all__ = [
    "PHASE_CODES",
    "ClusterClient",
    "ClusterManifest",
    "ClusterNode",
    "NodeThread",
    "ShardAssignment",
    "ShardRole",
    "admin_call",
    "fetch_manifest",
    "migrate_shard",
    "migrate_shard_sync",
    "plan_manifest",
    "shard_dirname",
]
