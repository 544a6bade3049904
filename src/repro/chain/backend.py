"""The storage interface every engine implements (Section 2).

``Put`` / ``Get`` / ``ProvQuery`` / per-block state roots — the contract
the blockchain layer requires from its index, shared by COLE and all
three baselines so the benchmark harness can swap engines freely.
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional, Tuple

from repro.common.hashing import Digest


class StorageBackend(abc.ABC):
    """Abstract blockchain state storage."""

    @abc.abstractmethod
    def begin_block(self, height: int) -> None:
        """Start executing transactions of block ``height``."""

    @abc.abstractmethod
    def put(self, addr: bytes, value: bytes) -> None:
        """Write a state update in the current block."""

    def put_many(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Write a batch of state updates, in order, in the current block.

        Semantically identical to calling :meth:`put` per pair (the
        default does exactly that); engines override it to amortize
        per-put dispatch — COLE batches the L0 inserts.
        """
        for addr, value in items:
            self.put(addr, value)

    @abc.abstractmethod
    def get(self, addr: bytes) -> Optional[bytes]:
        """Latest value of ``addr``, or None."""

    @abc.abstractmethod
    def commit_block(self) -> Digest:
        """Finalize the current block; returns the state root digest."""

    @abc.abstractmethod
    def prov_query(self, addr: bytes, blk_low: int, blk_high: int) -> object:
        """Historical values of ``addr`` in the block range, with proof."""

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Total storage footprint in bytes."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release resources."""
