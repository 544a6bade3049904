"""Unit tests for the level machinery: the view's source order and the
build scheduler."""

import threading
from functools import partial

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core.compound import compound_key
from repro.core.merge import BuildSpec, MergeScheduler
from repro.core.run import encode_pairs
from repro.core.storage import execute
from repro.diskio.workspace import Workspace


@pytest.fixture
def params():
    return ColeParams(
        system=SystemParams(addr_size=8, value_size=8, page_size=256),
        mem_capacity=8,
        size_ratio=2,
    )


def flush_spec(params, name, first_byte):
    """A level-1 build of four versions of one address."""
    entries = [(compound_key(bytes([first_byte]) * 8, blk), b"\x01" * 8) for blk in range(1, 5)]
    pairs = tuple(encode_pairs(entries, params.system.key_size))
    return BuildSpec(name, 1, len(pairs), pairs, ()), entries


def make_run(tmp_path, params, name, first_byte):
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    return execute(ws, params, flush_spec(params, name, first_byte)[0])


def test_view_search_order_is_writing_then_merging_newest_first(tmp_path, params):
    """Algorithm 6's order has one definition: the published view."""
    from repro.core import Cole

    cole = Cole(str(tmp_path / "ws"), params)
    level = cole._ensure_level(1)
    runs = [make_run(tmp_path, params, name, byte) for byte, name in enumerate("abcd", 1)]
    level.merging += runs[:2]
    level.writing += runs[2:]
    cole._publish_view()
    searched = [s.source for s in cole._view.sources if s.kind == "run"]
    assert searched == [runs[3], runs[2], runs[1], runs[0]]
    hashed = [s.source for s in cole._view.roots if s.kind == "run"]
    assert hashed == level.all_runs() == [runs[2], runs[3], runs[0], runs[1]]
    cole.close()


def test_pending_merge_propagates_error(tmp_path, params):
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    # A merge of a source run the workspace does not hold.
    spec = BuildSpec("L2_00000007", 2, 4, (), (("L1_00000003", 4),))
    scheduler = MergeScheduler(partial(execute, ws, params))
    pending = scheduler.spawn(spec)
    for _ in range(2):  # a failed build fails every wait
        with pytest.raises(StorageError) as excinfo:
            pending.wait()
        # The context names the run and chains the original failure,
        # which names the missing source.
        assert "L2_00000007" in str(excinfo.value)
        assert "level 2" in str(excinfo.value)
        assert "L1_00000003.val" in str(excinfo.value.__cause__)
    scheduler.close()
    # The inline executor has already run the build: it fails at spawn.
    inline = MergeScheduler(partial(execute, ws, params), inline=True)
    with pytest.raises(StorageError, match="L2_00000007") as excinfo:
        inline.spawn(spec)
    assert "L1_00000003.val" in str(excinfo.value.__cause__)
    inline.close()
    assert list(ws.list_files()) == []  # neither attempt left a file
    ws.close()


def test_pending_merge_wait_joins_task(tmp_path, params):
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    spec, entries = flush_spec(params, "L1_00000001", 3)
    scheduler = MergeScheduler(partial(execute, ws, params))
    pending = scheduler.spawn(spec)
    run = pending.wait()
    assert pending.future.done()
    assert (run.name, run.level, run.num_entries) == ("L1_00000001", 1, 4)
    assert list(run.iter_from(0)) == entries
    scheduler.close()
    ws.close()


def test_merge_scheduler_runs_concurrent_tasks_without_queueing(tmp_path, params):
    """Back-to-back spawns in one cascade each get their own worker: a
    build never waits behind an unrelated earlier one."""
    ws = Workspace(str(tmp_path / "ws"), params.system.page_size)
    release = threading.Event()
    started = threading.Event()
    first_spec, _ = flush_spec(params, "L1_00000001", 3)
    second_spec, _ = flush_spec(params, "L1_00000002", 4)

    def execute_holding_the_first(spec):
        if spec is first_spec:
            started.set()
            release.wait(timeout=5)
        return execute(ws, params, spec)

    scheduler = MergeScheduler(execute_holding_the_first)
    first = scheduler.spawn(first_spec)
    assert started.wait(timeout=5)
    second = scheduler.spawn(second_spec)
    # completes while the first build is still held
    assert second.wait().name == "L1_00000002"
    assert not first.future.done()
    release.set()
    assert first.wait().name == "L1_00000001"
    scheduler.close()
    ws.close()
