"""Address -> shard routing.

The route must be deterministic across processes, nodes, and restarts —
the composite ``Hstate`` hangs on every node partitioning the address
space identically — so the router avoids Python's salted ``hash``.
CRC32 over the address bytes is cheap enough for the per-put hot path and
spreads well: state addresses are either hash-derived
(:meth:`repro.chain.contracts.base.ExecutionContext.address`) or uniform
random, and CRC32 keeps even adversarially structured addresses from all
landing on one shard's doorstep.

The on-disk half of the partition lives here too: shard ``i`` of a
sharded workspace, of a WAL, of a snapshot and of a cluster node is the
subdirectory :func:`shard_dirname` names.
"""

from __future__ import annotations

import os
import zlib
from typing import List


def shard_of(addr: bytes, num_shards: int) -> int:
    """The index of the shard owning ``addr`` (0-based, stable)."""
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
