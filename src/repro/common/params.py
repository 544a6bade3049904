"""Parameter objects mirroring the paper's Table 2 and Section 8.1.2.

The paper's defaults: 4 KB pages, 88-byte compound key-value pairs
(hence epsilon = 23), size ratio T = 4, MHT fanout m = 4, and an in-memory
capacity B sized from a memory budget.  Both parameter objects are frozen
dataclasses so experiment sweeps cannot accidentally mutate shared
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass


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
        return self.page_size // self.pair_size

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
        value_cache_pages: only 0; the engine has no page cache of its
            own.  Kept because callers pass it.
        compaction: only ``"leveling"``, the paper's trigger; kept because
            callers pass it.
    """

    system: SystemParams = SystemParams()
    size_ratio: int = 4
    mht_fanout: int = 4
    mem_capacity: int = 512
    async_merge: bool = False
    value_cache_pages: int = 0
    compaction: str = "leveling"

    def __post_init__(self) -> None:
        if self.value_cache_pages != 0:
            raise ValueError(
                "value_cache_pages must be 0: the engine has no page cache, "
                f"got {self.value_cache_pages!r}"
            )
        if self.compaction != "leveling":
            raise ValueError(f"compaction must be 'leveling', got {self.compaction!r}")
        if self.size_ratio < 2:
            raise ValueError("size_ratio must be >= 2")
        if self.mht_fanout < 2:
            raise ValueError("mht_fanout must be >= 2")
        if self.mem_capacity < 1:
            raise ValueError("mem_capacity must be >= 1")
