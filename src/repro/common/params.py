"""Parameter objects mirroring the paper's Table 2 and Section 8.1.2.

The paper's defaults: 4 KB pages, 88-byte compound key-value pairs
(hence epsilon = 23), size ratio T = 4, MHT fanout m = 4, and an in-memory
capacity B sized from a memory budget.  Both parameter objects are frozen
dataclasses so experiment sweeps cannot accidentally mutate shared
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SystemParams:
    """Physical-layout parameters shared by every storage engine.

    Attributes:
        page_size: bytes per disk page (paper: 4096).
        addr_size: bytes per state address.  The paper stores Ethereum-style
            fixed-size address strings; with 40-byte keys and 32-byte values
            a key-value pair is 88 bytes, reproducing the paper's epsilon=23.
        value_size: bytes per state value.
        blk_size: bytes used to encode a block height inside a compound key
            (the paper fixes this to a 64-bit value).
    """

    page_size: int = 4096
    addr_size: int = 32
    value_size: int = 40
    blk_size: int = 8

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if min(self.addr_size, self.value_size, self.blk_size) <= 0:
            raise ValueError("addr/value/blk sizes must be positive")

    @property
    def key_size(self) -> int:
        """Bytes per compound key ``<addr, blk>``."""
        return self.addr_size + self.blk_size

    @property
    def pair_size(self) -> int:
        """Bytes per compound key-value pair in a value file."""
        return self.key_size + self.value_size

    @property
    def pairs_per_page(self) -> int:
        """Key-value pairs that fit in one value-file page (``2 * epsilon``)."""
        return max(2, self.page_size // self.pair_size)

    @property
    def epsilon(self) -> int:
        """Learned-model error bound, half a value-file page (Section 4.1)."""
        return self.pairs_per_page // 2


@dataclass(frozen=True)
class ColeParams:
    """COLE-specific tuning knobs (Table 2 defaults in bold in the paper).

    Attributes:
        system: physical layout shared with the other engines.
        size_ratio: LSM level size ratio ``T`` (default 4).
        mht_fanout: fanout ``m`` of the m-ary Merkle files (default 4).
        mem_capacity: in-memory level capacity ``B`` in key-value pairs.
            The paper derives B from a 64 MB budget; at reproduction scale
            we default to 512 pairs so multi-level behaviour appears quickly.
        async_merge: ``True`` runs Algorithm 5 (COLE*), ``False`` Algorithm 1.
        value_cache_pages: per-run value-file page-cache capacity (the
            segmented LRU of ``repro.diskio.pagefile``).  0 — the default —
            disables caching so the IO-cost accounting of Table 1 counts
            every raw page access; the serving layer and the cache
            benchmarks opt in.
        compaction: cascade trigger policy (``repro.core.compaction``).
            ``"leveling"`` (the default, the paper's behaviour) merges a
            level as soon as it holds ``size_ratio`` runs; ``"tiering"``
            lets under-full sibling runs accumulate until the group
            actually overflows ``level_capacity``, trading bounded read
            fanout for less merge write amplification (the Dostoevsky
            trade-off).  An engine's own commits flush L0 only once it
            is full, so the policies part ways over under-full runs:
            the ones ``rewind_to`` rebuilds and the cascades a caller
            forces.  Persisted in the manifest and validated on reopen.
    """

    system: SystemParams = SystemParams()
    size_ratio: int = 4
    mht_fanout: int = 4
    mem_capacity: int = 512
    async_merge: bool = False
    value_cache_pages: int = 0
    compaction: str = "leveling"

    def __post_init__(self) -> None:
        if self.value_cache_pages < 0:
            raise ValueError("value_cache_pages cannot be negative")
        if self.compaction not in ("leveling", "tiering"):
            raise ValueError(
                f"compaction must be 'leveling' or 'tiering', got {self.compaction!r}"
            )
        if self.size_ratio < 2:
            raise ValueError("size_ratio must be >= 2")
        if self.mht_fanout < 2:
            raise ValueError("mht_fanout must be >= 2")
        if self.mem_capacity < 1:
            raise ValueError("mem_capacity must be >= 1")

    def level_capacity(self, level: int) -> int:
        """Maximum number of pairs a single group of on-disk level holds.

        Level ``i >= 1`` holds up to ``B * T**i`` pairs per group
        (Section 4; with async merge each level has two such groups).
        """
        if level < 1:
            raise ValueError("on-disk levels start at 1")
        return self.mem_capacity * self.size_ratio**level

    def run_size(self, level: int) -> int:
        """Number of pairs in one full run at on-disk level ``level``."""
        return self.mem_capacity * self.size_ratio ** (level - 1)

    def with_async(self, async_merge: bool = True) -> "ColeParams":
        """Return a copy with the asynchronous-merge flag set."""
        return replace(self, async_merge=async_merge)

    def with_compaction(self, compaction: str) -> "ColeParams":
        """Return a copy with a different compaction policy."""
        return replace(self, compaction=compaction)

