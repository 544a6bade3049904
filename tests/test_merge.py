"""Unit tests for the engine's one k-way merge and its entry points."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cursor import MergingCursor
from repro.core.merge import merge_entry_streams, merge_newest_first
from repro.kvstore.sstable import merge_tables


def test_disjoint_streams():
    a = [(1, b"a"), (3, b"c")]
    b = [(2, b"b"), (4, b"d")]
    assert list(merge_entry_streams([a, b])) == [(1, b"a"), (2, b"b"), (3, b"c"), (4, b"d")]


def test_empty_streams():
    assert list(merge_entry_streams([])) == []
    assert list(merge_entry_streams([[], []])) == []


def test_single_stream_passthrough():
    entries = [(i, bytes([i])) for i in range(10)]
    assert list(merge_entry_streams([entries])) == entries


def test_duplicate_keys_newest_stream_wins():
    older = [(5, b"old"), (7, b"keep")]
    newer = [(5, b"new")]
    merged = list(merge_entry_streams([older, newer]))
    assert merged == [(5, b"new"), (7, b"keep")]


def test_many_streams_interleaved():
    streams = [[(i * 10 + s, bytes([s])) for i in range(20)] for s in range(5)]
    merged = list(merge_entry_streams(streams))
    keys = [key for key, _value in merged]
    assert keys == sorted(keys)
    assert len(merged) == 100


def test_merge_is_lazy():
    def infinite():
        key = 0
        while True:
            yield key, b"x"
            key += 1

    stream = merge_entry_streams([infinite()])
    first = [next(stream) for _ in range(3)]
    assert first == [(0, b"x"), (1, b"x"), (2, b"x")]


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
    assert list(merge_entry_streams(streams[::-1])) == expect
    assert list(MergingCursor([iter(stream) for stream in streams])) == expect
    as_bytes = [[(key.to_bytes(2, "big"), value) for key, value in s] for s in streams]
    assert list(merge_tables(as_bytes[::-1])) == [
        (key.to_bytes(2, "big"), value) for key, value in expect
    ]
