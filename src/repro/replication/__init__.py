"""Read-scaling replication: WAL shipping from a primary to live replicas.

COLE's commit checkpoints are deterministic — two engines that commit the
same ``(addr, value)`` batches at the same block heights reach the same
``Hstate`` byte for byte, regardless of merge timing.  That property
makes physical replication self-verifying: the primary ships its WAL
records (PUTS batches plus the COMMIT marker carrying the primary's
root), the replica applies them through the ordinary
``begin_block`` / ``put_many`` / ``commit_block`` path, and equality of
the two roots at every height *is* the correctness oracle.

* :class:`ReplicationHub` — primary side: fans sealed-and-synced WAL
  records out to subscriber streams, each caught up from the on-disk WAL.
* :class:`ReplicaApplier` — replica side: tails the primary's stream,
  applies and verifies each commit, reconnects forever on failure.

See DESIGN.md ("Replication") for the stream protocol, the bootstrap
story, and the lag semantics.
"""

from repro.replication.hub import ReplicationHub, SnapshotRequiredError
from repro.replication.replica import ReplicaApplier

__all__ = ["ReplicationHub", "ReplicaApplier", "SnapshotRequiredError"]
