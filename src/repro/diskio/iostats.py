"""Page-level IO accounting.

The complexity claims of Table 1 (write IO cost, get-query IO cost,
provenance IO cost) are validated empirically by counting page accesses.
Counters are grouped by a free-form category string — by convention the
file class: ``"value"``, ``"index"``, ``"merkle"``, ``"kvstore"``, ...
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator

IOCategory = str


@dataclass
class IOStats:
    """Thread-safe page-access counters, grouped by category.

    The async-merge path (Algorithm 5) performs IO from background
    threads, so all mutation happens under a lock.
    """

    page_reads: Dict[IOCategory, int] = field(default_factory=lambda: defaultdict(int))
    page_writes: Dict[IOCategory, int] = field(default_factory=lambda: defaultdict(int))
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_read(self, category: IOCategory, pages: int = 1) -> None:
        """Count ``pages`` page reads against ``category``."""
        with self._lock:
            self.page_reads[category] += pages

    def record_write(self, category: IOCategory, pages: int = 1) -> None:
        """Count ``pages`` page writes against ``category``."""
        with self._lock:
            self.page_writes[category] += pages

    def cache_summary(self) -> Dict[str, float]:
        """Page-cache counters, all zero: the engine has no page cache
        (every read is a billed page read).  The keys stay because the
        perf ledger and STATS ``io.page_cache`` read them."""
        return {"hits": 0, "misses": 0, "lookups": 0, "promotions": 0, "hit_rate": 0.0}

    @property
    def total_reads(self) -> int:
        """Total page reads across all categories."""
        with self._lock:
            return sum(self.page_reads.values())

    @property
    def total_writes(self) -> int:
        """Total page writes across all categories."""
        with self._lock:
            return sum(self.page_writes.values())

    @property
    def total(self) -> int:
        """Total page accesses (reads + writes).

        Both sums are taken under one lock acquisition: summing reads and
        writes separately would let a recorder land between the two and
        produce a total that matches neither before nor after.
        """
        with self._lock:
            return sum(self.page_reads.values()) + sum(self.page_writes.values())

    def snapshot(self) -> "IOStats":
        """Return an independent copy (for before/after deltas)."""
        with self._lock:
            copy = IOStats()
            copy.page_reads = defaultdict(int, self.page_reads)
            copy.page_writes = defaultdict(int, self.page_writes)
            return copy

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Return counters accumulated since the ``earlier`` snapshot."""
        with self._lock:
            diff = IOStats()
            for cat, count in self.page_reads.items():
                diff.page_reads[cat] = count - earlier.page_reads.get(cat, 0)
            for cat, count in self.page_writes.items():
                diff.page_writes[cat] = count - earlier.page_writes.get(cat, 0)
            return diff

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.page_reads.clear()
            self.page_writes.clear()

    def categories(self) -> Iterator[IOCategory]:
        """Iterate over all categories seen so far."""
        with self._lock:
            seen = set(self.page_reads) | set(self.page_writes)
        return iter(sorted(seen))

    def per_category(self) -> Dict[IOCategory, Dict[str, int]]:
        """``{category: {"reads": n, "writes": n}}`` from one locked
        snapshot (STATS ``io.categories``), sorted so scrapes are stable."""
        with self._lock:
            seen = set(self.page_reads) | set(self.page_writes)
            return {
                cat: {
                    "reads": self.page_reads.get(cat, 0),
                    "writes": self.page_writes.get(cat, 0),
                }
                for cat in sorted(seen)
            }
