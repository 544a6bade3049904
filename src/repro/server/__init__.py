"""The serving layer: COLE behind a concurrent TCP front end.

Turns the in-process engine into a service (see DESIGN.md):

* :class:`ColeServer` — asyncio TCP server speaking a length-prefixed
  binary protocol (PUT / GET / GET_AT / PROV / ROOT / STATS / FLUSH /
  SCAN / MULTI_GET / MULTI_PUT / METRICS / REPL_SUBSCRIBE, the op table
  of :mod:`repro.server.protocol`) over one ``Cole``;
* :class:`WriteBatcher` — group commit: many clients' puts coalesce into
  one block through the engine's batched write path;
* :class:`VersionedReadCache` — hot-key read cache, refreshed by each
  commit for the addresses it wrote so cached answers are always exact;
* :class:`ServerClient` — one pipelined asyncio connection, the only
  client transport (replica streams too);
* :mod:`repro.server.loadgen` — closed-loop load generation
  (``repro loadgen`` on the CLI; Figure 17 in the benchmarks).

Attach a :class:`~repro.wal.WriteAheadLog` (``repro serve --wal``) and
the server becomes durable: PUTs ack only after a group fsync, and the
WAL tail replays on startup (Figure 18; ``tests/test_durability.py``).
A WAL-enabled server is also a replication primary — live replicas
(``repro serve --replica-of``) tail its record stream and serve reads,
each one read through its own ``connect(replica)`` (Figure 19;
``tests/test_replication.py``; see :mod:`repro.replication`).

Client code holds one interface: :func:`connect` returns a
:class:`ServerClient` for one server, primary or replica.  A replica
answers a write with ``NOT_PRIMARY`` naming its primary, which the
client raises as :class:`NotPrimaryError` carrying the primary's
``address``.
"""

from repro.server.batcher import WriteBatcher
from repro.server.cache import VersionedReadCache
from repro.server.client import ServerClient, connect
from repro.server.loadgen import (
    LoadgenParams,
    LoadReport,
    client_ops,
    run_loadgen,
)
from repro.server.protocol import (
    NotPrimaryError,
    Op,
    RootInfo,
    Status,
)
from repro.server.server import ColeServer, ServerConfig, ServerThread

__all__ = [
    "ColeServer",
    "ServerConfig",
    "ServerThread",
    "ServerClient",
    "connect",
    "WriteBatcher",
    "VersionedReadCache",
    "Op",
    "Status",
    "RootInfo",
    "NotPrimaryError",
    "LoadgenParams",
    "LoadReport",
    "client_ops",
    "run_loadgen",
]
