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
    # Page-cache behaviour (segmented LRU in PagedFile): hits avoid a
    # page read entirely, promotions move a re-referenced page into the
    # protected segment.  All zero while caches are disabled (the
    # default — Table 1 IO accounting counts raw page reads only).
    cache_hits: Dict[IOCategory, int] = field(default_factory=lambda: defaultdict(int))
    cache_misses: Dict[IOCategory, int] = field(default_factory=lambda: defaultdict(int))
    cache_promotions: Dict[IOCategory, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_read(self, category: IOCategory, pages: int = 1) -> None:
        """Count ``pages`` page reads against ``category``."""
        with self._lock:
            self.page_reads[category] += pages

    def record_write(self, category: IOCategory, pages: int = 1) -> None:
        """Count ``pages`` page writes against ``category``."""
        with self._lock:
            self.page_writes[category] += pages

    def record_cache_hit(self, category: IOCategory) -> None:
        """Count one page-cache hit (a page read that never happened)."""
        with self._lock:
            self.cache_hits[category] += 1

    def record_cache_miss(self, category: IOCategory) -> None:
        """Count one page-cache miss (the read was billed separately)."""
        with self._lock:
            self.cache_misses[category] += 1

    def record_cache_promotion(self, category: IOCategory) -> None:
        """Count one probationary -> protected segment promotion."""
        with self._lock:
            self.cache_promotions[category] += 1

    def cache_summary(self) -> Dict[str, float]:
        """Totals across categories, from one locked snapshot."""
        with self._lock:
            hits = sum(self.cache_hits.values())
            misses = sum(self.cache_misses.values())
            promotions = sum(self.cache_promotions.values())
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "lookups": total,
            "promotions": promotions,
            "hit_rate": hits / total if total else 0.0,
        }

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
            copy.cache_hits = defaultdict(int, self.cache_hits)
            copy.cache_misses = defaultdict(int, self.cache_misses)
            copy.cache_promotions = defaultdict(int, self.cache_promotions)
            return copy

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Return counters accumulated since the ``earlier`` snapshot."""
        with self._lock:
            diff = IOStats()
            for cat, count in self.page_reads.items():
                diff.page_reads[cat] = count - earlier.page_reads.get(cat, 0)
            for cat, count in self.page_writes.items():
                diff.page_writes[cat] = count - earlier.page_writes.get(cat, 0)
            for cat, count in self.cache_hits.items():
                diff.cache_hits[cat] = count - earlier.cache_hits.get(cat, 0)
            for cat, count in self.cache_misses.items():
                diff.cache_misses[cat] = count - earlier.cache_misses.get(cat, 0)
            for cat, count in self.cache_promotions.items():
                diff.cache_promotions[cat] = count - earlier.cache_promotions.get(cat, 0)
            return diff

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.page_reads.clear()
            self.page_writes.clear()
            self.cache_hits.clear()
            self.cache_misses.clear()
            self.cache_promotions.clear()

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
