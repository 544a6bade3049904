"""Unit tests for compound keys (Section 3.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.codec import int_to_bytes
from repro.core.compound import MAX_BLK, blk_of_int, check_blk, compound_key


def test_to_int_formula():
    assert compound_key(b"\x00" * 19 + b"\x01", 5) == 1 * 2**64 + 5


def test_int_round_trip():
    key = compound_key(b"\xab" * 20, 12345)
    assert int_to_bytes(key >> 64, 20) == b"\xab" * 20
    assert blk_of_int(key) == 12345


def test_latest_of_uses_max_blk():
    """``<addr, MAX_BLK>`` is the largest key of ``addr``: above every
    version of it, below every version of the next address."""
    sentinel = compound_key(b"\x01" * 20, MAX_BLK)
    assert blk_of_int(sentinel) == MAX_BLK
    assert compound_key(b"\x01" * 20, 0) < sentinel < compound_key(b"\x01" * 19 + b"\x02", 0)


def test_ordering_groups_versions_of_one_address():
    addr = b"\x05" * 20
    older = compound_key(addr, 3)
    newer = compound_key(addr, 9)
    other = compound_key(b"\x06" * 20, 1)
    assert older < newer < other


def test_blk_out_of_range_rejected():
    with pytest.raises(ValueError):
        check_blk(-1)
    with pytest.raises(ValueError):
        check_blk(MAX_BLK + 1)
    check_blk(MAX_BLK)


def test_extractors():
    key = compound_key(b"\x07" * 20, 77)
    assert key >> 64 == int.from_bytes(b"\x07" * 20, "big")
    assert blk_of_int(key) == 77


@given(st.binary(min_size=20, max_size=20), st.integers(min_value=0, max_value=MAX_BLK))
def test_round_trip_property(addr, blk):
    key = compound_key(addr, blk)
    assert int_to_bytes(key >> 64, 20) == addr
    assert blk_of_int(key) == blk
