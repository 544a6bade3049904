"""Tests for state rewind (fork support — the paper's future work)."""

import random

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, verify_provenance


def make_params(async_merge=False):
    return ColeParams(
        system=SystemParams(addr_size=20, value_size=32),
        mem_capacity=16,
        size_ratio=3,
        async_merge=async_merge,
    )


def apply_blocks(cole, log):
    for blk, ops in log:
        cole.begin_block(blk)
        for addr, value in ops:
            cole.put(addr, value)
        cole.commit_block()


def make_log(seed=41, blocks=60, pool_size=16, puts=5):
    rng = random.Random(seed)
    pool = [rng.randbytes(20) for _ in range(pool_size)]
    return pool, [
        (blk, [(rng.choice(pool), rng.randbytes(32)) for _ in range(puts)])
        for blk in range(1, blocks + 1)
    ]


@pytest.mark.parametrize("async_merge", [False, True], ids=["sync", "async"])
def test_rewind_drops_newer_versions(tmp_path, async_merge):
    pool, log = make_log()
    cole = Cole(str(tmp_path / "r"), make_params(async_merge))
    apply_blocks(cole, log)
    target = 35
    dropped = cole.rewind_to(target)
    assert dropped > 0
    # State equals a fresh engine fed only blocks <= target.
    reference = Cole(str(tmp_path / "ref"), make_params(async_merge))
    apply_blocks(reference, [(blk, ops) for blk, ops in log if blk <= target])
    for addr in pool:
        assert cole.get(addr) == reference.get(addr)
    cole.close()
    reference.close()


def test_rewind_provenance_consistent(tmp_path):
    pool, log = make_log(blocks=50)
    cole = Cole(str(tmp_path / "p"), make_params())
    apply_blocks(cole, log)
    cole.rewind_to(30)
    root = cole.root_digest()
    history = {}
    for blk, ops in log:
        if blk > 30:
            continue
        for addr, value in ops:
            versions = history.setdefault(addr, {})
            versions[blk] = value
    for addr in pool[:6]:
        result = cole.prov_query(addr, 10, 45)
        expected = sorted(
            (blk, value)
            for blk, value in history.get(addr, {}).items()
            if 10 <= blk <= 45
        )
        assert result.versions == expected
        assert verify_provenance(result, root, addr_size=20) == expected
    cole.close()


def test_rewind_is_deterministic_across_nodes(tmp_path):
    _pool, log = make_log(blocks=55)

    def run(directory):
        cole = Cole(directory, make_params(async_merge=True))
        apply_blocks(cole, log)
        cole.rewind_to(33)
        digest = cole.root_digest()
        cole.close()
        return digest

    assert run(str(tmp_path / "a")) == run(str(tmp_path / "b"))


@pytest.mark.parametrize("async_merge", [False, True], ids=["sync", "async"])
def test_rewind_then_fork_replay(tmp_path, async_merge):
    # Asynchronous: the rewind meets a flush and level merges in flight;
    # their merging groups must get their builds back, not be dropped
    # (the pool is wide enough that the fork leaves addresses untouched).
    pool, log = make_log(blocks=60, pool_size=64)
    cole = Cole(str(tmp_path / "f"), make_params(async_merge))
    apply_blocks(cole, log)
    assert async_merge == bool(cole._pending_merges())
    cole.rewind_to(45)
    # A different branch from block 46 onward.
    rng = random.Random(99)
    fork = [
        (blk, [(rng.choice(pool), rng.randbytes(32)) for _ in range(5)])
        for blk in range(46, 86)
    ]
    apply_blocks(cole, fork)
    model = {}
    for blk, ops in log:
        if blk <= 45:
            for addr, value in ops:
                model[addr] = value
    for blk, ops in fork:
        for addr, value in ops:
            model[addr] = value
    for addr in pool:
        assert cole.get(addr) == model.get(addr)
    for level in cole.levels:
        assert bool(level.merging.runs) == (level.pending is not None)
    cole.close()


def test_rewind_to_zero_empties_everything(tmp_path):
    pool, log = make_log(blocks=30)
    cole = Cole(str(tmp_path / "z"), make_params())
    apply_blocks(cole, log)
    cole.rewind_to(0)
    for addr in pool:
        assert cole.get(addr) is None
    assert cole.storage_bytes() >= 0
    cole.close()


def test_rewind_future_block_is_noop(tmp_path):
    pool, log = make_log(blocks=20)
    cole = Cole(str(tmp_path / "n"), make_params())
    apply_blocks(cole, log)
    before = cole.root_digest()
    assert cole.rewind_to(10**6) == 0
    assert cole.root_digest() == before
    cole.close()


def test_rewind_negative_rejected(tmp_path):
    cole = Cole(str(tmp_path / "neg"), make_params())
    with pytest.raises(ValueError):
        cole.rewind_to(-1)
    cole.close()


def test_rewind_survives_reopen(tmp_path):
    pool, log = make_log(blocks=45)
    directory = str(tmp_path / "re")
    cole = Cole(directory, make_params())
    apply_blocks(cole, log)
    cole.rewind_to(20)
    expected = {addr: cole.get(addr) for addr in pool}
    cole.close()
    reopened = Cole(directory, make_params())
    for addr in pool:
        assert reopened.get(addr) == expected[addr]
    reopened.close()
