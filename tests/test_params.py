"""Unit tests for the parameter objects (Table 2 geometry)."""

import pytest

from repro.common.params import ColeParams, SystemParams


def test_default_epsilon_matches_paper():
    # 4 KB pages with 88-byte pairs: the paper's epsilon = 23.
    params = SystemParams(page_size=4096, addr_size=40, value_size=40, blk_size=8)
    assert params.pair_size == 88
    assert params.epsilon == 23


def test_pairs_per_page_is_two_epsilon():
    params = SystemParams()
    assert params.pairs_per_page // 2 == params.epsilon


def test_key_size():
    params = SystemParams(addr_size=20, blk_size=8)
    assert params.key_size == 28


def test_invalid_page_size_rejected():
    with pytest.raises(ValueError):
        SystemParams(page_size=0)


def test_invalid_addr_size_rejected():
    with pytest.raises(ValueError):
        SystemParams(addr_size=0)


def test_size_ratio_must_be_at_least_two():
    with pytest.raises(ValueError):
        ColeParams(size_ratio=1)


def test_fanout_must_be_at_least_two():
    with pytest.raises(ValueError):
        ColeParams(mht_fanout=1)


def test_mem_capacity_positive():
    with pytest.raises(ValueError):
        ColeParams(mem_capacity=0)


def test_value_cache_pages_refuses_a_page_cache():
    assert ColeParams(value_cache_pages=0).value_cache_pages == 0
    for pages in (1, 256, -1):
        with pytest.raises(ValueError, match="no page cache"):
            ColeParams(value_cache_pages=pages)
