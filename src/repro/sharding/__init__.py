"""Sharding: the hash partition a cluster splits its address space by.

Public surface:

* :func:`shard_of` — the public, deterministic address -> shard route;
* :func:`shard_dirname` / :func:`shard_dirs` — the ``shard-NN``
  directory layout of a cluster node's workspace.

The cluster (:mod:`repro.cluster`) is the one scale-out shape: every
shard is a single :class:`~repro.core.Cole` behind its own server.
"""

from repro.sharding.router import shard_dirname, shard_dirs, shard_of

__all__ = ["shard_dirname", "shard_dirs", "shard_of"]
