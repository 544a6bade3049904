"""Unit and property tests for the bloom filter."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.bloomfilter import BloomFilter
from repro.common.codec import encode_u32
from repro.common.errors import StorageError

from read_oracle import bloom_contains, bloom_positions


def test_added_items_are_members():
    bloom = BloomFilter(1024, 5)
    items = [f"item{i}".encode() for i in range(50)]
    bloom.add(items)
    assert all(item in bloom for item in items)


def test_count_tracks_adds():
    bloom = BloomFilter(256, 3)
    bloom.add([b"a"])
    bloom.add([b"b"])
    assert bloom.count == 2


def test_false_positive_rate_is_reasonable():
    rng = random.Random(7)
    bloom = BloomFilter.for_capacity(1000, bits_per_key=10, num_hashes=7)
    members = [rng.randbytes(16) for _ in range(1000)]
    bloom.add(members)
    negatives = [rng.randbytes(16) for _ in range(2000)]
    false_positives = sum(1 for item in negatives if item in bloom)
    assert false_positives / len(negatives) < 0.05  # theory: ~0.8%


def test_serialization_round_trip():
    bloom = BloomFilter(512, 4)
    bloom.add([f"k{i}".encode() for i in range(20)])
    restored = BloomFilter.from_bytes(bloom.to_bytes())
    assert restored.num_bits == bloom.num_bits
    assert restored.num_hashes == bloom.num_hashes
    assert restored.count == bloom.count
    assert all(f"k{i}".encode() in restored for i in range(20))
    assert restored.digest() == bloom.digest()


def test_digest_changes_with_content():
    a = BloomFilter(256, 3)
    b = BloomFilter(256, 3)
    a.add([b"x"])
    assert a.digest() != b.digest()


def test_empty_filter_rate_is_zero():
    assert BloomFilter(256, 3).false_positive_rate() == 0.0


def test_size_bytes_matches_serialization():
    bloom = BloomFilter(1000, 5)
    assert bloom.size_bytes() == len(bloom.to_bytes())


@given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=100, unique=True))
def test_no_false_negatives_property(items):
    bloom = BloomFilter.for_capacity(len(items), 10, 7)
    bloom.add(items)
    assert all(item in bloom for item in items)


def _filter_from_positions(num_bits, num_hashes, items):
    """Bit-by-bit reference: the oracle's ``(h1 + i * h2) % m`` positions
    decide which bits an item owns."""
    reference = BloomFilter(num_bits, num_hashes)
    for item in items:
        for position in bloom_positions(reference, item):
            reference._bits[position >> 3] |= 1 << (position & 7)
        reference._count += 1
    return reference


@given(
    st.lists(st.binary(min_size=1, max_size=8), min_size=0, max_size=60),
    st.integers(min_value=1, max_value=6),  # repeat factor: runs of equal items
    st.integers(min_value=8, max_value=4000),
    st.integers(min_value=1, max_value=9),
)
def test_add_many_equals_repeated_add(items, repeat, num_bits, num_hashes):
    # Sorted with repeats = consecutive duplicates, the shape of a run's
    # address column (several versions of one address in a row).
    stream = [item for item in sorted(items) for _ in range(repeat)]
    one_by_one = BloomFilter(num_bits, num_hashes)
    for item in stream:
        one_by_one.add([item])
    batched = BloomFilter(num_bits, num_hashes)
    batched.add(stream)
    paged = BloomFilter(num_bits, num_hashes)
    for start in range(0, len(stream), 7):  # a duplicate run split across batches
        paged.add(stream[start : start + 7])
    expected = _filter_from_positions(num_bits, num_hashes, stream).to_bytes()
    assert one_by_one.to_bytes() == batched.to_bytes() == paged.to_bytes() == expected
    assert batched.count == len(stream)
    assert all(item in batched for item in stream)


def test_add_many_invalidates_cached_digest():
    bloom = BloomFilter(256, 3)
    before = bloom.digest()
    bloom.add([b"x", b"x", b"y"])
    assert bloom.digest() != before


def test_from_bytes_checks_length_before_allocating():
    # A proof's filter bytes come from an untrusted server: a 12-byte
    # header claiming 2**32 - 1 bits must be refused without building
    # the 512 MB bit array it describes.
    forged = encode_u32(2**32 - 1) + encode_u32(7) + encode_u32(0) + b"\x00" * 16
    tracemalloc.start()
    try:
        with pytest.raises(StorageError):
            BloomFilter.from_bytes(forged)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(StorageError):
        BloomFilter.from_bytes(BloomFilter(64, 3).to_bytes() + b"\x00")


@given(
    st.lists(st.binary(min_size=1, max_size=8), max_size=40),
    st.lists(st.binary(min_size=1, max_size=8), max_size=40),
    st.integers(min_value=8, max_value=3000),
    st.integers(min_value=1, max_value=8),  # from_bytes refuses more hashes than bits
)
def test_flag_adds_match_the_positions_oracle_bit_for_bit(first, second, num_bits, num_hashes):
    # A filter loaded with from_bytes and then added to ORs its new flags
    # into the loaded bits; num_bits spans pack steps and odd tails.
    loaded = BloomFilter(num_bits, num_hashes)
    loaded.add(first)
    restored = BloomFilter.from_bytes(loaded.to_bytes())
    restored.add(second)
    expected = _filter_from_positions(num_bits, num_hashes, first + second)
    assert restored.to_bytes() == expected.to_bytes()
    assert restored.digest() == expected.digest()
    for item in first + second + [b"absent"]:
        assert (item in restored) == bloom_contains(expected, item)


def test_build_adds_hold_one_flag_byte_per_bit_plus_a_page():
    # A run build adds one value page of addresses at a time (51 at the
    # default geometry); the flags it holds meanwhile are the only
    # filter memory that grows with the run, and the pack that folds
    # them into the bit array works on one page-sized step at a time.
    page, per_page = 4096, 51
    rng = random.Random(11)
    addrs = sorted(rng.randbytes(20) for _ in range(3000))
    pages = [addrs[start : start + per_page] for start in range(0, len(addrs), per_page)]
    bloom = BloomFilter.for_capacity(len(addrs), 10, 7)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for batch in pages:
            bloom.add(batch)
        assert addrs[0] in bloom  # packs the flags
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= bloom.num_bits + page
    assert all(addr in bloom for addr in addrs)
