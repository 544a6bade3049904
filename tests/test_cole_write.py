"""Tests for COLE's write path (Algorithm 1): flushes, merges, levels."""

import random

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole


@pytest.fixture
def params():
    system = SystemParams(addr_size=20, value_size=32)
    return ColeParams(system=system, mem_capacity=8, size_ratio=2, mht_fanout=4)


def fill_blocks(cole, rng, blocks, puts_per_block=4, addr_pool=None):
    addr_pool = addr_pool or [rng.randbytes(20) for _ in range(16)]
    model = {}
    start = cole.current_blk + 1
    for blk in range(start, start + blocks):
        cole.begin_block(blk)
        for _ in range(puts_per_block):
            addr = rng.choice(addr_pool)
            value = rng.randbytes(32)
            cole.put(addr, value)
            model[addr] = value
        cole.commit_block()
    return model


def test_flush_creates_first_level(workdir, params, rng):
    cole = Cole(workdir, params)
    fill_blocks(cole, rng, blocks=3)  # 12 puts > B=8 -> flush at block end
    assert cole.num_disk_levels() >= 1
    assert len(cole.levels[0].writing) >= 1
    cole.close()


def test_mem_level_clears_after_flush(workdir, params, rng):
    cole = Cole(workdir, params)
    fill_blocks(cole, rng, blocks=3)
    assert len(cole.mem_writing) < params.mem_capacity
    cole.close()


def test_recursive_merge_builds_deeper_levels(workdir, params, rng):
    cole = Cole(workdir, params)
    fill_blocks(cole, rng, blocks=40, addr_pool=[rng.randbytes(20) for _ in range(64)])
    assert cole.num_disk_levels() >= 2
    # Deeper levels hold larger runs (roughly B * T^(i-1); flushes are
    # block-aligned so runs may exceed B by a block's worth of updates).
    for level in cole.levels:
        for run in level.all_runs():
            assert run.num_entries >= params.mem_capacity * (
                params.size_ratio ** (run.level - 1)
            )
    cole.close()


def test_merge_removes_source_runs(workdir, params, rng):
    cole = Cole(workdir, params)
    fill_blocks(cole, rng, blocks=40, addr_pool=[rng.randbytes(20) for _ in range(64)])
    # In sync mode no level may hold T or more runs after a commit.
    for level in cole.levels:
        assert len(level.writing) < params.size_ratio
    cole.close()


def test_storage_grows_linearly_not_with_depth(workdir, params, rng):
    cole = Cole(workdir, params)
    pool = [rng.randbytes(20) for _ in range(64)]
    fill_blocks(cole, rng, blocks=20, addr_pool=pool)
    first = cole.storage_bytes()
    fill_blocks(cole, rng, blocks=20, addr_pool=pool)
    second = cole.storage_bytes()
    assert second < first * 4  # roughly linear growth, no path duplication


def test_wrong_addr_size_rejected(workdir, params):
    cole = Cole(workdir, params)
    cole.begin_block(1)
    with pytest.raises(StorageError):
        cole.put(b"short", b"\x00" * 32)
    cole.close()


def test_block_height_above_max_blk_rejected(workdir, params):
    from repro.core import MAX_BLK

    cole = Cole(workdir, params)
    cole.begin_block(MAX_BLK + 1)
    addr = b"\x01" * 20
    with pytest.raises(ValueError):
        cole.put(addr, b"\x00" * 32)
    with pytest.raises(ValueError):
        cole.put_many([(addr, b"\x00" * 32)])
    assert len(cole.mem_writing) == 0 and cole.puts_total == 0
    with pytest.raises(ValueError):
        cole.get_at(addr, MAX_BLK + 1)
    with pytest.raises(ValueError):
        cole.get_at(addr, -1)
    cole.close()


def test_decreasing_block_height_rejected(workdir, params):
    cole = Cole(workdir, params)
    cole.begin_block(5)
    with pytest.raises(StorageError):
        cole.begin_block(4)
    cole.close()


def test_same_block_overwrite_keeps_one_version(workdir, params, rng):
    cole = Cole(workdir, params)
    addr = rng.randbytes(20)
    cole.begin_block(1)
    cole.put(addr, b"\x01" * 32)
    cole.put(addr, b"\x02" * 32)
    cole.commit_block()
    assert len(cole.mem_writing) == 1
    assert cole.get(addr) == b"\x02" * 32
    cole.close()


def test_root_digest_changes_with_writes(workdir, params, rng):
    cole = Cole(workdir, params)
    cole.begin_block(1)
    first = cole.root_digest()
    cole.put(rng.randbytes(20), b"\x00" * 32)
    assert cole.root_digest() != first
    cole.close()


def test_root_hash_list_labels_are_unique(workdir, params, rng):
    cole = Cole(workdir, params)
    fill_blocks(cole, rng, blocks=30, addr_pool=[rng.randbytes(20) for _ in range(64)])
    labels = [label for label, _digest in cole.root_hash_list()]
    assert len(labels) == len(set(labels))
    cole.close()


def test_deterministic_root_digest_across_instances(tmp_path, params):
    def run(directory):
        rng = random.Random(77)
        cole = Cole(directory, params)
        fill_blocks(cole, rng, blocks=25)
        digest = cole.root_digest()
        cole.close()
        return digest

    assert run(str(tmp_path / "a")) == run(str(tmp_path / "b"))


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_a_cascade_builds_one_run_and_counts_every_build_once(tmp_path, monkeypatch, mode):
    """COLE builds exactly one run per cascade with anything to build —
    its flush and the merges the same commit would merge away are never
    written.  On both engines no run file is created and unlinked within
    one commit, and ``bytes_flushed + bytes_rewritten`` is every byte of
    every run that landed (COLE* leaves its last builds in flight)."""
    from repro.core.run import Run
    from repro.diskio.workspace import Workspace

    built, removed = {}, set()  # run name -> storage bytes; unlinked files
    original_build = Run.build.__func__
    original_remove = Workspace.remove_file

    def spy_build(cls, workspace, name, *args):
        run = original_build(cls, workspace, name, *args)
        built[name] = run.storage_bytes()
        return run

    def spy_remove(workspace, name):
        removed.add(name.rsplit(".", 1)[0])
        original_remove(workspace, name)

    monkeypatch.setattr(Run, "build", classmethod(spy_build))
    monkeypatch.setattr(Workspace, "remove_file", spy_remove)
    params = ColeParams(
        system=SystemParams(addr_size=20, value_size=32), mem_capacity=16, size_ratio=3,
        async_merge=mode == "async",
    )
    cole = Cole(str(tmp_path), params)
    rng = random.Random(7)
    pool = [rng.randbytes(20) for _ in range(40)]
    model, cascades = {}, 0
    for blk in range(1, 161):
        forced = rng.random() < 0.08
        cole.begin_block(blk)
        for _ in range(0 if rng.random() < 0.3 and forced else rng.randint(3, 7)):
            addr = rng.choice(pool)
            model[addr] = rng.randbytes(32)
            cole.put(addr, model[addr])
        work = (forced or cole.needs_cascade()) and len(cole.mem_writing) > 0
        cascades += work
        before = set(built)
        removed.clear()
        cole.commit_block(force_cascade=True if forced else None)
        new = set(built) - before
        assert not new & removed, blk
        if mode == "sync":
            assert len(new) == work, blk
    if mode == "sync":
        assert len(built) == cascades
    assert cole.num_disk_levels() >= 3
    for addr, value in model.items():
        assert cole.get(addr) == value
    in_flight = sum(pending.wait().storage_bytes() for pending in cole._pending_merges())
    stats = cole.compaction_stats()
    assert stats["bytes_flushed"] + stats["bytes_rewritten"] == sum(built.values()) - in_flight
    cole.close()
