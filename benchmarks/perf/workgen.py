"""Seeded input generation and the dict-of-versions model.

Everything the program is fed comes from here, derived from ``--seed``
before any clock starts.  The benchmark owns these generators (zipf
sampler included) so that rewriting ``repro.workloads`` / ``repro.bench``
cannot move the ruler.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

ADDR_SIZE = 32
VALUE_SIZE = 40
USER_BYTES_PER_PUT = ADDR_SIZE + VALUE_SIZE
MAX_ADDR = b"\xff" * ADDR_SIZE

Put = Tuple[bytes, bytes]


def make_rng(seed: int, *labels: object) -> random.Random:
    """An independent stream per (seed, label...): adding a consumer of
    one stream never shifts the values another stream produces."""
    return random.Random("/".join(str(part) for part in (seed,) + labels))


def make_addrs(rng: random.Random, count: int) -> List[bytes]:
    """``count`` distinct 32-byte addresses."""
    addrs = {rng.randbytes(ADDR_SIZE) for _ in range(count)}
    while len(addrs) < count:  # 256-bit collisions: never, but stay exact
        addrs.add(rng.randbytes(ADDR_SIZE))
    ordered = sorted(addrs)
    rng.shuffle(ordered)
    return ordered


class ZipfSampler:
    """Ranks ``0..n-1`` with P(rank) proportional to 1 / (rank+1)**theta."""

    def __init__(self, n: int, theta: float = 0.99) -> None:
        total = 0.0
        cumulative = []
        for rank in range(1, n + 1):
            total += 1.0 / rank**theta
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cumulative, rng.random() * self._total)


class VersionModel:
    """addr -> ascending ``[(blk, value)]``: what every answer is checked
    against."""

    def __init__(self) -> None:
        self.versions: Dict[bytes, List[Tuple[int, bytes]]] = {}
        self._sorted: Optional[List[bytes]] = None

    def write(self, addr: bytes, blk: int, value: bytes) -> None:
        history = self.versions.get(addr)
        if history is None:
            self.versions[addr] = [(blk, value)]
            self._sorted = None
        elif history[-1][0] == blk:
            history[-1] = (blk, value)  # overwrite within a block
        else:
            history.append((blk, value))

    def latest(self, addr: bytes) -> Optional[bytes]:
        history = self.versions.get(addr)
        return history[-1][1] if history else None

    def at(self, addr: bytes, blk: int) -> Optional[bytes]:
        history = self.versions.get(addr)
        if not history:
            return None
        index = bisect.bisect_right(history, (blk, b"\xff" * (VALUE_SIZE + 1))) - 1
        return history[index][1] if index >= 0 else None

    def window(self, addr: bytes, blk_low: int, blk_high: int) -> List[Tuple[int, bytes]]:
        return [
            (blk, value)
            for blk, value in self.versions.get(addr, ())
            if blk_low <= blk <= blk_high
        ]

    def scan(self, addr_low: bytes, limit: int) -> List[Tuple[bytes, int, bytes]]:
        if self._sorted is None:
            self._sorted = sorted(self.versions)
        start = bisect.bisect_left(self._sorted, addr_low)
        return [
            (addr,) + self.versions[addr][-1]
            for addr in self._sorted[start : start + limit]
        ]


# =============================================================================
# engine workloads
# =============================================================================

def make_blocks(
    rng: random.Random, addrs: Sequence[bytes], num_blocks: int, puts_per_block: int
) -> List[List[Put]]:
    """``num_blocks`` write sets, uniform over ``addrs``.

    Addresses are distinct *within* a block, so every block adds exactly
    ``puts_per_block`` compound keys and the flush/merge cadence — and
    with it every byte and page count — is a function of the sizes only.
    """
    population = range(len(addrs))
    return [
        [
            (addrs[index], rng.randbytes(VALUE_SIZE))
            for index in rng.sample(population, puts_per_block)
        ]
        for _ in range(num_blocks)
    ]


def model_of_blocks(blocks: Sequence[Sequence[Put]]) -> VersionModel:
    """The model after block ``i`` (1-based heights) wrote ``blocks[i-1]``."""
    model = VersionModel()
    for height, items in enumerate(blocks, start=1):
        for addr, value in items:
            model.write(addr, height, value)
    return model


@dataclass
class QueryOp:
    """One read request with the answer the model expects."""

    kind: str  # get | get_absent | get_at | prov | scan
    args: tuple
    expected: object
    keys: int  # addresses this request reads (the ops_per_s weight)


QUERY_MIX = (
    ("get", 0.60),
    ("get_absent", 0.10),
    ("get_at", 0.10),
    ("prov", 0.10),
    ("scan", 0.10),
)
PROV_WINDOW_SHARE = 4  # a provenance query covers a quarter of the chain
SCAN_LIMIT = 32


def make_query_ops(
    rng: random.Random, model: VersionModel, num_blocks: int, count: int
) -> List[QueryOp]:
    """``count`` reads in the fixed 60/10/10/10/10 mix over a built store."""
    present = sorted(model.versions)
    kinds = [kind for kind, _share in QUERY_MIX]
    weights = [share for _kind, share in QUERY_MIX]
    window = max(1, num_blocks // PROV_WINDOW_SHARE)
    ops: List[QueryOp] = []
    for kind in rng.choices(kinds, weights, k=count):
        if kind == "get":
            addr = rng.choice(present)
            ops.append(QueryOp(kind, (addr,), model.latest(addr), 1))
        elif kind == "get_absent":
            addr = rng.randbytes(ADDR_SIZE)
            ops.append(QueryOp(kind, (addr,), model.latest(addr), 1))
        elif kind == "get_at":
            addr = rng.choice(present)
            blk = rng.randint(1, num_blocks)
            ops.append(QueryOp(kind, (addr, blk), model.at(addr, blk), 1))
        elif kind == "prov":
            addr = rng.choice(present)
            low = rng.randint(1, num_blocks - window + 1)
            high = low + window - 1
            ops.append(QueryOp(kind, (addr, low, high), model.window(addr, low, high), 1))
        else:
            low_addr = rng.randbytes(ADDR_SIZE)
            expected = model.scan(low_addr, SCAN_LIMIT)
            ops.append(QueryOp(kind, (low_addr,), expected, max(1, len(expected))))
    return ops


# =============================================================================
# served workloads
# =============================================================================

@dataclass
class ServedOp:
    """One wire request; ``expected`` is ``None`` for writes."""

    kind: str  # get | put | multi_get | multi_put
    payload: object
    expected: object = None
    keys: int = 1


@dataclass
class ServedState:
    """Latest value per key as the connections' closed loops leave it."""

    keys: List[bytes]
    values: Dict[bytes, bytes] = field(default_factory=dict)


MULTI_BATCH = 16
PRELOAD_BATCH = 256


def make_preload(rng: random.Random, state: ServedState) -> List[List[Put]]:
    """MULTI_PUT(256) batches writing every key once."""
    batches = []
    for start in range(0, len(state.keys), PRELOAD_BATCH):
        batch = [
            (addr, rng.randbytes(VALUE_SIZE))
            for addr in state.keys[start : start + PRELOAD_BATCH]
        ]
        state.values.update(batch)
        batches.append(batch)
    return batches


def make_mixed_ops(
    rng: random.Random,
    state: ServedState,
    partition: Sequence[bytes],
    zipf: ZipfSampler,
    count: int,
) -> List[ServedOp]:
    """50% GET zipf / 45% PUT / 5% MULTI_PUT(16) over one connection's
    own key partition, so expected reads and the final state do not
    depend on how the two connections interleave."""
    ops: List[ServedOp] = []
    for draw in (rng.random() for _ in range(count)):
        if draw < 0.50:
            addr = partition[zipf.sample(rng)]
            ops.append(ServedOp("get", addr, state.values.get(addr)))
        elif draw < 0.95:
            addr = rng.choice(partition)
            value = rng.randbytes(VALUE_SIZE)
            state.values[addr] = value
            ops.append(ServedOp("put", (addr, value)))
        else:
            items = [
                (addr, rng.randbytes(VALUE_SIZE))
                for addr in rng.sample(partition, MULTI_BATCH)
            ]
            state.values.update(items)
            ops.append(ServedOp("multi_put", items, keys=MULTI_BATCH))
    return ops


def make_read_ops(
    rng: random.Random, state: ServedState, zipf: ZipfSampler, count: int
) -> List[ServedOp]:
    """80% GET zipf / 20% MULTI_GET(16), no writes."""
    ops: List[ServedOp] = []
    for draw in (rng.random() for _ in range(count)):
        if draw < 0.80:
            addr = state.keys[zipf.sample(rng)]
            ops.append(ServedOp("get", addr, state.values.get(addr)))
        else:
            addrs = [state.keys[zipf.sample(rng)] for _ in range(MULTI_BATCH)]
            ops.append(
                ServedOp(
                    "multi_get",
                    addrs,
                    [state.values.get(addr) for addr in addrs],
                    keys=MULTI_BATCH,
                )
            )
    return ops
