"""The in-memory level L0: an MB-tree over compound keys (Section 3.2).

With asynchronous merge, L0 consists of *two* such trees (writing and
merging groups, Figure 7); both are committed state and both contribute
their root hashes to ``root_hash_list``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.hashing import Digest
from repro.core.compound import blk_of_int
from repro.mbtree import MBTree, MBTreeProof

Entry = Tuple[int, bytes]


class MemGroup:
    """One L0 group: an MB-tree plus bookkeeping for checkpoints."""

    def __init__(self, key_width: int, order: int = 16) -> None:
        self.tree = MBTree(order=order, key_width=key_width)
        self.max_blk = -1  # highest block height inserted (recovery, §4.3)

    def insert(self, key: int, value: bytes) -> None:
        """Insert a compound key-value pair (overwrites within a block)."""
        self.tree.insert(key, value)
        blk = blk_of_int(key)
        if blk > self.max_blk:
            self.max_blk = blk

    def __len__(self) -> int:
        return len(self.tree)

    def root(self) -> Digest:
        """The group's entry in ``root_hash_list``."""
        return self.tree.root_hash()

    def floor_search(self, key: int) -> Optional[Entry]:
        """Largest entry with key <= ``key`` (Algorithm 6 line 4)."""
        return self.tree.floor_search(key)

    def cursor(self):
        """Key-ordered cursor over this group (``repro.core.cursor``)."""
        from repro.core.cursor import MemCursor

        return MemCursor(self)

    def range_proof(self, low: int, high: int) -> Tuple[List[Entry], MBTreeProof]:
        """Authenticated range scan for provenance queries (Algorithm 8)."""
        return self.tree.range_proof(low, high)

    def drain(self) -> List[Entry]:
        """All entries in key order (flushing L0, Algorithm 1 line 5)."""
        return list(self.tree.items())
