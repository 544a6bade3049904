"""Unit tests for the engine's one k-way merge and its entry points."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cursor import MergingCursor
from repro.core.merge import merge_entry_streams, merge_newest_first
from repro.kvstore.sstable import merge_tables


def pair(key, value):
    """An encoded pair with a 2-byte key, as merge_entry_streams takes them."""
    return key.to_bytes(2, "big") + value


def test_disjoint_streams():
    a = [pair(1, b"a"), pair(3, b"c")]
    b = [pair(2, b"b"), pair(4, b"d")]
    merged = list(merge_entry_streams([a, b], 2))
    assert merged == [pair(1, b"a"), pair(2, b"b"), pair(3, b"c"), pair(4, b"d")]


def test_empty_streams():
    assert list(merge_entry_streams([], 2)) == []
    assert list(merge_entry_streams([[], []], 2)) == []


def test_single_stream_passthrough():
    pairs = [pair(i, bytes([i])) for i in range(10)]
    assert list(merge_entry_streams([pairs], 2)) == pairs


def test_duplicate_keys_newest_stream_wins():
    # The newer pair sorts after the older one as whole bytes: only the
    # key prefix is compared, so stream order decides.
    older = [pair(5, b"\x00"), pair(7, b"keep")]
    newer = [pair(5, b"\xff")]
    merged = list(merge_entry_streams([older, newer], 2))
    assert merged == [pair(5, b"\xff"), pair(7, b"keep")]


def test_many_streams_interleaved():
    streams = [[pair(i * 10 + s, bytes([s])) for i in range(20)] for s in range(5)]
    merged = list(merge_entry_streams(streams, 2))
    assert merged == sorted(merged)
    assert len(merged) == 100


def test_merge_is_lazy():
    def infinite():
        key = 0
        while True:
            yield pair(key, b"x")
            key += 1

    stream = merge_entry_streams([infinite()], 2)
    first = [next(stream) for _ in range(3)]
    assert first == [pair(0, b"x"), pair(1, b"x"), pair(2, b"x")]


# Sorted streams over a small key space, so keys recur across 2+ streams.
sorted_streams = st.lists(
    st.dictionaries(st.integers(0, 40), st.binary(max_size=2), max_size=12).map(
        lambda entries: sorted(entries.items())
    ),
    max_size=6,
)


@settings(deadline=None)
@given(sorted_streams)
@example([[(1, b"")], [(1, b""), (2, b"")], [(0, b""), (1, b"")]])  # key 1 in 3 streams
def test_every_entry_point_equals_the_newest_wins_oracle(raw):
    # Newest first; each value names its stream, so the winner is visible.
    streams = [
        [(key, bytes([index]) + value) for key, value in stream]
        for index, stream in enumerate(raw)
    ]
    live = {}
    for stream in reversed(streams):  # oldest first: newer overwrite
        live.update(stream)
    expect = sorted(live.items())

    assert list(merge_newest_first(streams)) == expect
    as_pairs = [[pair(key, value) for key, value in s] for s in streams]
    assert list(merge_entry_streams(as_pairs[::-1], 2)) == [
        pair(key, value) for key, value in expect
    ]
    assert list(MergingCursor([iter(stream) for stream in streams])) == expect
    as_bytes = [[(key.to_bytes(2, "big"), value) for key, value in s] for s in streams]
    assert list(merge_tables(as_bytes[::-1])) == [
        (key.to_bytes(2, "big"), value) for key, value in expect
    ]
