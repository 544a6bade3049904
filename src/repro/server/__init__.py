"""The serving layer: COLE behind a concurrent TCP front end.

Turns the in-process engine into a service (see DESIGN.md):

* :class:`ColeServer` — asyncio TCP server speaking a length-prefixed
  binary protocol (PUT / GET / GET_AT / PROV / ROOT / STATS / FLUSH)
  over one ``Cole`` or ``ShardedCole``;
* :class:`WriteBatcher` — group commit: many clients' puts coalesce into
  one block through the engine's batched write path;
* :class:`VersionedReadCache` — hot-key read cache, refreshed by each
  commit for the addresses it wrote so cached answers are always exact;
* :class:`ServerClient` — one pipelined asyncio connection, the only
  client transport (replica streams and cluster control calls too);
* :mod:`repro.server.loadgen` — open/closed-loop load generation
  (``repro loadgen`` on the CLI; Figure 17 in the benchmarks).

Attach a :class:`~repro.wal.WriteAheadLog` (``repro serve --wal``) and
the server becomes durable: PUTs ack only after a group fsync, and the
WAL tail replays on startup (Figure 18; ``tests/test_durability.py``).
A WAL-enabled server is also a replication primary — live replicas
(``repro serve --replica-of``) tail its record stream and serve reads,
with :class:`ReplicatedClient` fanning reads across them (Figure 19;
``tests/test_replication.py``; see :mod:`repro.replication`).

Client code holds one interface regardless of topology: :func:`connect`
returns a :class:`KVClient` — a :class:`ServerClient` for one server, a
:class:`ReplicatedClient` for a replica set, or the manifest-routed
``ClusterClient`` (see :mod:`repro.cluster`) when given cluster
arguments.  Servers that must not answer a request refer the client with
a :class:`Referral` (``NOT_PRIMARY`` to the primary, ``MOVED`` to a
migrated shard's new owner), and every client follows them
transparently.
"""

from repro.server.batcher import WriteBatcher
from repro.server.cache import VersionedReadCache
from repro.server.client import KVClient, ReplicatedClient, ServerClient, connect
from repro.server.loadgen import (
    LoadgenParams,
    LoadReport,
    client_ops,
    format_report,
    replay_writes,
    run_loadgen,
    run_loadgen_sync,
)
from repro.server.protocol import (
    MovedError,
    NotPrimaryError,
    Op,
    Referral,
    RootInfo,
    Status,
)
from repro.server.server import ColeServer, ServerConfig, ServerThread

__all__ = [
    "ColeServer",
    "ServerConfig",
    "ServerThread",
    "ServerClient",
    "ReplicatedClient",
    "KVClient",
    "connect",
    "WriteBatcher",
    "VersionedReadCache",
    "Op",
    "Status",
    "RootInfo",
    "Referral",
    "NotPrimaryError",
    "MovedError",
    "LoadgenParams",
    "LoadReport",
    "client_ops",
    "format_report",
    "replay_writes",
    "run_loadgen",
    "run_loadgen_sync",
]
