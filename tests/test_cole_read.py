"""Tests for COLE's read path (Algorithm 6): gets and historical gets."""

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole


@pytest.fixture
def params():
    system = SystemParams(addr_size=20, value_size=32)
    return ColeParams(system=system, mem_capacity=16, size_ratio=3, mht_fanout=4)


def build_history(cole, rng, blocks=60, pool_size=24, puts_per_block=5):
    pool = [rng.randbytes(20) for _ in range(pool_size)]
    model = {}
    history = {}
    for blk in range(1, blocks + 1):
        cole.begin_block(blk)
        for _ in range(puts_per_block):
            addr = rng.choice(pool)
            value = rng.randbytes(32)
            cole.put(addr, value)
            model[addr] = value
            versions = history.setdefault(addr, [])
            if versions and versions[-1][0] == blk:
                versions[-1] = (blk, value)
            else:
                versions.append((blk, value))
        cole.commit_block()
    return pool, model, history


def test_get_latest_values(workdir, params, rng):
    cole = Cole(workdir, params)
    pool, model, _history = build_history(cole, rng)
    for addr in pool:
        assert cole.get(addr) == model.get(addr)
    cole.close()


def test_get_missing_address(workdir, params, rng):
    cole = Cole(workdir, params)
    build_history(cole, rng)
    assert cole.get(rng.randbytes(20)) is None
    cole.close()


def test_get_from_memory_level_only(workdir, params, rng):
    cole = Cole(workdir, params)
    addr = rng.randbytes(20)
    cole.begin_block(1)
    cole.put(addr, b"\x09" * 32)
    assert cole.get(addr) == b"\x09" * 32  # before any flush
    cole.close()


def test_get_at_historical_blocks(workdir, params, rng):
    cole = Cole(workdir, params)
    _pool, _model, history = build_history(cole, rng)
    for addr, versions in list(history.items())[:8]:
        for blk, value in versions:
            assert cole.get_at(addr, blk) == value
    cole.close()


def test_get_at_between_versions_returns_previous(workdir, params, rng):
    cole = Cole(workdir, params)
    addr = rng.randbytes(20)
    for blk, tag in ((1, b"\x01"), (5, b"\x05"), (9, b"\x09")):
        cole.begin_block(blk)
        cole.put(addr, tag * 32)
        cole.commit_block()
    assert cole.get_at(addr, 3) == b"\x01" * 32
    assert cole.get_at(addr, 5) == b"\x05" * 32
    assert cole.get_at(addr, 8) == b"\x05" * 32
    assert cole.get_at(addr, 100) == b"\x09" * 32
    cole.close()


def test_get_at_before_first_version(workdir, params, rng):
    cole = Cole(workdir, params)
    addr = rng.randbytes(20)
    cole.begin_block(10)
    cole.put(addr, b"\x0a" * 32)
    cole.commit_block()
    assert cole.get_at(addr, 5) is None
    cole.close()


def test_newest_version_wins_across_levels(workdir, params, rng):
    cole = Cole(workdir, params)
    addr = rng.randbytes(20)
    filler = [rng.randbytes(20) for _ in range(32)]
    # Old version, pushed to disk by filler traffic.
    cole.begin_block(1)
    cole.put(addr, b"\x01" * 32)
    cole.commit_block()
    for blk in range(2, 20):
        cole.begin_block(blk)
        for f in filler[:5]:
            cole.put(f, rng.randbytes(32))
        cole.commit_block()
    # New version still in memory.
    cole.begin_block(20)
    cole.put(addr, b"\x02" * 32)
    cole.commit_block()
    assert cole.get(addr) == b"\x02" * 32
    cole.close()


def test_read_io_bounded_by_levels(workdir, params, rng):
    cole = Cole(workdir, params)
    pool, model, _history = build_history(cole, rng, blocks=80, pool_size=48)
    runs = [run for level in cole.levels for run in level.all_runs()]
    assert len(runs) >= 3
    stats = cole.stats
    for addr in pool[:10]:
        # Table 1's Cmodel per run the filter lets through: at most two
        # pages per index layer and two value pages, nothing read twice;
        # a run the filter excludes costs no IO at all.
        bound = sum(
            2 * run.index_file.num_layers + 2 for run in runs if addr in run.bloom
        )
        before = stats.snapshot()
        cole.get(addr)
        assert stats.delta(before).total_reads <= bound
    absent = b"\x07" * 20
    before = stats.snapshot()
    assert cole.get(absent) is None
    assert stats.delta(before).total_reads <= sum(
        2 * run.index_file.num_layers + 2 for run in runs if absent in run.bloom
    )
    cole.close()
