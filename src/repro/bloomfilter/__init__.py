"""Bloom filters for skipping runs during reads (Section 4).

COLE attaches a bloom filter over *addresses* (not compound keys) to the
in-memory level and to every on-disk run.  Because the filters take part in
result verification (a negative-run proof carries the bloom), they expose a
stable serialization and a digest that is folded into the state root.
"""

from repro.bloomfilter.filter import BloomFilter, HashedItem, bits_contain, hash_item

__all__ = ["BloomFilter", "HashedItem", "bits_contain", "hash_item"]
