"""Provenance-query workload (Section 8.1.3, following [44]).

100 base states are written, then continuously updated by write
transactions; queries pick a random base key and ask for its history over
the last ``q`` blocks — ``q`` is the x-axis of Figure 14.
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from repro.chain.transaction import Transaction


class ProvenanceWorkload:
    """Frequently-updated base data plus range queries over it."""

    def __init__(self, num_base_keys: int = 100, payload_size: int = 32, seed: int = 1) -> None:
        self.num_base_keys = num_base_keys
        self.payload_size = payload_size
        self.seed = seed

    def _key(self, index: int) -> str:
        return f"prov{index}"

    def _payload(self, rng: random.Random) -> str:
        return "".join(rng.choice("0123456789abcdef") for _ in range(self.payload_size))

    def load_transactions(self) -> Iterator[Transaction]:
        """Write the 100 base states (the paper's base data)."""
        rng = random.Random(self.seed)
        for index in range(self.num_base_keys):
            yield Transaction("kvstore", "write", (self._key(index), self._payload(rng)))

    def update_transactions(self, count: int) -> Iterator[Transaction]:
        """Continuous updates of random base states."""
        rng = random.Random(self.seed + 1)
        for _ in range(count):
            key = self._key(rng.randrange(self.num_base_keys))
            yield Transaction("kvstore", "write", (key, self._payload(rng)))

    def queries(
        self, count: int, current_block: int, query_range: int
    ) -> Iterator[Tuple[str, int, int]]:
        """Yield (key, blk_low, blk_high) covering the last ``query_range``
        blocks, as in Figure 14's setup."""
        rng = random.Random(self.seed + 2)
        blk_high = current_block
        blk_low = max(1, current_block - query_range + 1)
        for _ in range(count):
            yield self._key(rng.randrange(self.num_base_keys)), blk_low, blk_high
