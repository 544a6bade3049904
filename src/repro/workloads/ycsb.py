"""YCSB-style KVStore workload (Section 8.1.3).

A loading phase writes the base data; a running phase issues reads and
updates over the base keys with zipfian popularity, in one of three
mixes: Read-Only, Read-Write (50/50) and Write-Only — the axes of
Figure 11.

The served figures draw their op streams from
:func:`repro.server.loadgen.client_ops` instead, over the same
:class:`ZipfGenerator`.
"""

from __future__ import annotations

import enum
import random
from typing import Iterator, List

from repro.chain.transaction import Transaction


class Mix(enum.Enum):
    """Read/write transaction mixes of Figure 11."""

    READ_ONLY = "RO"
    READ_WRITE = "RW"
    WRITE_ONLY = "WO"


class ZipfGenerator:
    """Zipfian key-rank sampler (YCSB's default request distribution)."""

    def __init__(self, num_items: int, theta: float = 0.99, seed: int = 1) -> None:
        if num_items < 1:
            raise ValueError("need at least one item")
        self.num_items = num_items
        self.rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** theta for rank in range(num_items)]
        total = sum(weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)

    def next_rank(self) -> int:
        """Sample a key rank (0 = most popular)."""
        import bisect

        return bisect.bisect_left(self._cumulative, self.rng.random())


class YCSBWorkload:
    """Deterministic KVStore transaction stream."""

    def __init__(
        self,
        num_keys: int = 1000,
        payload_size: int = 32,
        theta: float = 0.99,
        seed: int = 1,
    ) -> None:
        self.num_keys = num_keys
        self.payload_size = payload_size
        self.theta = theta
        self.seed = seed

    def _key(self, rank: int) -> str:
        return f"user{rank}"

    def _payload(self, rng: random.Random) -> str:
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(self.payload_size))

    def load_transactions(self) -> Iterator[Transaction]:
        """The loading phase: write every base key once."""
        rng = random.Random(self.seed)
        for rank in range(self.num_keys):
            yield Transaction("kvstore", "write", (self._key(rank), self._payload(rng)))

    def run_transactions(self, count: int, mix: Mix = Mix.READ_WRITE) -> Iterator[Transaction]:
        """The running phase: ``count`` transactions in the given mix."""
        rng = random.Random(self.seed + 1)
        zipf = ZipfGenerator(self.num_keys, theta=self.theta, seed=self.seed + 2)
        for _ in range(count):
            key = self._key(zipf.next_rank())
            if mix is Mix.READ_ONLY:
                is_read = True
            elif mix is Mix.WRITE_ONLY:
                is_read = False
            else:
                is_read = rng.random() < 0.5
            if is_read:
                yield Transaction("kvstore", "read", (key,))
            else:
                yield Transaction("kvstore", "write", (key, self._payload(rng)))
