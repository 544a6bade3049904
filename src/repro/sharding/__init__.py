"""Sharding: hash-partitioned scale-out of COLE (see DESIGN.md).

Public surface:

* :class:`ShardedCole` — N independent COLE shards behind the standard
  :class:`~repro.chain.backend.StorageBackend` contract, with a composite
  ``Hstate`` over the ordered per-shard roots and parallel block commits;
* :func:`shard_of` — the public, deterministic address -> shard route;
* :func:`shard_dirname` / :func:`shard_dirs` — the ``shard-NN``
  directory layout every sharded artifact on disk shares;
* :func:`verify_sharded_provenance` — client-side verification of
  :class:`ShardedProvenanceResult` against the composite state root.

Configuration lives in :class:`repro.common.params.ShardParams`.
"""

from repro.common.params import ShardParams
from repro.sharding.engine import ShardedCole
from repro.sharding.proofs import ShardedProvenanceResult
from repro.sharding.router import shard_dirname, shard_dirs, shard_of
from repro.sharding.verify import verify_sharded_provenance

__all__ = [
    "ShardParams",
    "ShardedCole",
    "ShardedProvenanceResult",
    "shard_dirname",
    "shard_dirs",
    "shard_of",
    "verify_sharded_provenance",
]
