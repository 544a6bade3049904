"""Unit tests for the level/group machinery (memlevel, disklevel)."""

import threading

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core.compound import CompoundKey
from repro.core.disklevel import DiskGroup, DiskLevel
from repro.core.memlevel import MemGroup
from repro.core.run import Run
from repro.diskio.workspace import Workspace


@pytest.fixture
def params():
    return ColeParams(
        system=SystemParams(addr_size=8, value_size=8, page_size=256),
        mem_capacity=8,
        size_ratio=2,
    )


def make_run(tmp_path, params, name, first_byte):
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    entries = [
        (CompoundKey(addr=bytes([first_byte]) * 8, blk=blk).to_int(), b"\x01" * 8)
        for blk in range(1, 5)
    ]
    return Run.build(ws, name, 1, iter(entries), len(entries), params)


def test_mem_group_tracks_max_blk():
    group = MemGroup(key_width=16)
    group.insert(CompoundKey(addr=b"\x01" * 8, blk=5).to_int(), b"v")
    group.insert(CompoundKey(addr=b"\x02" * 8, blk=3).to_int(), b"v")
    assert group.max_blk == 5
    assert len(group) == 2


def test_mem_group_drain_is_sorted():
    group = MemGroup(key_width=16)
    keys = [CompoundKey(addr=bytes([b]) * 8, blk=1).to_int() for b in (9, 3, 7)]
    for key in keys:
        group.insert(key, b"v")
    drained = group.drain()
    assert [key for key, _v in drained] == sorted(keys)


def test_disk_group_take_all_detaches_runs_and_keeps_files(tmp_path, params):
    group = DiskGroup()
    run = make_run(tmp_path, params, "victim", 3)
    group.add(run)
    assert group.take_all() == [run]
    assert len(group) == 0
    assert run.storage_bytes() > 0
    run.delete()
    assert run.storage_bytes() == 0


def test_disk_level_switch_groups(tmp_path, params):
    level = DiskLevel(1)
    run = make_run(tmp_path, params, "w", 4)
    level.writing.add(run)
    level.switch_groups()
    assert level.merging.runs == [run]
    assert level.writing.runs == []


def test_view_search_order_is_writing_then_merging_newest_first(tmp_path, params):
    """Algorithm 6's order has one definition: the published view."""
    from repro.core import Cole

    cole = Cole(str(tmp_path / "ws"), params)
    level = cole._ensure_level(1)
    runs = [make_run(tmp_path, params, name, byte) for byte, name in enumerate("abcd", 1)]
    level.merging.add(runs[0])
    level.merging.add(runs[1])
    level.writing.add(runs[2])
    level.writing.add(runs[3])
    cole._publish_view()
    searched = [s.source for s in cole._view.sources if s.kind == "run"]
    assert searched == [runs[3], runs[2], runs[1], runs[0]]
    hashed = [s.source for s in cole._view.roots if s.kind == "run"]
    assert hashed == level.all_runs() == [runs[2], runs[3], runs[0], runs[1]]
    cole.close()


def test_pending_merge_propagates_error():
    from repro.core.merge import MergeScheduler

    def boom():
        raise RuntimeError("merge failed")

    scheduler = MergeScheduler()
    pending = scheduler.spawn("merge", "L2_00000007", boom, level=2)
    for _ in range(2):  # a failed build fails every wait
        with pytest.raises(StorageError) as excinfo:
            pending.wait()
        # The context names the run and chains the original failure.
        assert "L2_00000007" in str(excinfo.value)
        assert "level 2" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
    scheduler.close()
    # The inline executor has already run the build: it fails at spawn.
    inline = MergeScheduler(inline=True)
    with pytest.raises(StorageError, match="L2_00000007") as excinfo:
        inline.spawn("merge", "L2_00000007", boom, level=2)
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    inline.close()


def test_pending_merge_wait_joins_task():
    from repro.core.merge import MergeScheduler

    seen = []
    scheduler = MergeScheduler()
    pending = scheduler.spawn("flush", "L1_00000001", lambda: seen.append(1))
    pending.wait()
    assert seen == [1]
    scheduler.close()


def test_merge_scheduler_runs_concurrent_tasks_without_queueing():
    """Back-to-back spawns in one cascade each get their own worker: a
    task never waits behind an unrelated earlier merge."""
    from repro.core.merge import MergeScheduler

    release = threading.Event()
    started = threading.Event()

    def blocker():
        started.set()
        release.wait(timeout=5)

    scheduler = MergeScheduler()
    first = scheduler.spawn("merge", "L2_00000001", blocker, level=2)
    assert started.wait(timeout=5)
    second = scheduler.spawn("merge", "L3_00000002", lambda: "done", level=3)
    # completes while the first task is still blocked
    assert second.wait() == "done"
    release.set()
    first.wait()
    scheduler.close()
