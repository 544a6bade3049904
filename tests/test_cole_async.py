"""Tests for the checkpoint-based asynchronous merge (Section 5)."""

import os
import random
import subprocess
import sys

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole


def make_params(async_merge):
    system = SystemParams(addr_size=20, value_size=32)
    return ColeParams(
        system=system, mem_capacity=16, size_ratio=3, mht_fanout=4,
        async_merge=async_merge,
    )


def run_workload(cole, seed=31, blocks=90, pool_size=24, puts_per_block=5):
    rng = random.Random(seed)
    pool = [rng.randbytes(20) for _ in range(pool_size)]
    model = {}
    digests = []
    for blk in range(1, blocks + 1):
        cole.begin_block(blk)
        for _ in range(puts_per_block):
            addr = rng.choice(pool)
            value = rng.randbytes(32)
            cole.put(addr, value)
            model[addr] = value
        digests.append(cole.commit_block())
    return pool, model, digests


def test_async_reads_match_sync(tmp_path):
    sync = Cole(str(tmp_path / "sync"), make_params(False))
    async_ = Cole(str(tmp_path / "async"), make_params(True))
    pool, model, _d1 = run_workload(sync)
    _pool2, model2, _d2 = run_workload(async_)
    assert model == model2
    for addr in pool:
        assert sync.get(addr) == async_.get(addr)
    sync.close()
    async_.close()


def test_async_digest_deterministic_across_nodes(tmp_path):
    node1 = Cole(str(tmp_path / "n1"), make_params(True))
    node2 = Cole(str(tmp_path / "n2"), make_params(True))
    _p1, _m1, digests1 = run_workload(node1)
    _p2, _m2, digests2 = run_workload(node2)
    # Every block's Hstate agrees, regardless of merge-thread timing.
    assert digests1 == digests2
    node1.close()
    node2.close()


def test_uncommitted_runs_invisible_to_digest(tmp_path):
    cole = Cole(str(tmp_path / "c"), make_params(True))
    run_workload(cole, blocks=50)
    before = cole.root_digest()
    cole.wait_for_merges()  # merges complete, but are not committed
    assert cole.root_digest() == before
    cole.close()


def test_both_mem_groups_searched(tmp_path):
    cole = Cole(str(tmp_path / "m"), make_params(True))
    rng = random.Random(5)
    addr = rng.randbytes(20)
    filler = [rng.randbytes(20) for _ in range(16)]
    # Fill exactly to capacity so a checkpoint swaps the groups.
    cole.begin_block(1)
    cole.put(addr, b"\x01" * 32)
    for f in filler[:15]:
        cole.put(f, b"\x00" * 32)
    cole.commit_block()  # checkpoint: tree with addr becomes merging group
    assert len(cole.mem_merging) == 16
    assert cole.get(addr) == b"\x01" * 32  # served from the merging group
    cole.close()


def test_merging_group_data_visible_until_commit(tmp_path):
    cole = Cole(str(tmp_path / "v"), make_params(True))
    pool, model, _d = run_workload(cole, blocks=40)
    # At any point every model value must be readable.
    for addr, value in model.items():
        assert cole.get(addr) == value
    cole.close()


def test_two_groups_per_level(tmp_path):
    cole = Cole(str(tmp_path / "g"), make_params(True))
    run_workload(cole, blocks=120, pool_size=48)
    assert cole.num_disk_levels() >= 2
    level = cole.levels[0]
    # Each group holds at most T runs.
    assert len(level.writing) <= cole.params.size_ratio
    assert len(level.merging) <= cole.params.size_ratio
    cole.close()


def test_async_storage_comparable_to_sync(tmp_path):
    sync = Cole(str(tmp_path / "s2"), make_params(False))
    async_ = Cole(str(tmp_path / "a2"), make_params(True))
    run_workload(sync, blocks=100, pool_size=48)
    run_workload(async_, blocks=100, pool_size=48)
    sync.wait_for_merges()
    async_.wait_for_merges()
    # The paper: COLE* keeps a comparable storage size (within its 2x
    # group duplication plus uncommitted merge outputs).
    assert async_.storage_bytes() < sync.storage_bytes() * 4
    sync.close()
    async_.close()


def test_merge_thread_errors_surface(tmp_path):
    from concurrent.futures import Future

    cole = Cole(str(tmp_path / "err"), make_params(True))
    run_workload(cole, blocks=40)
    pending = cole.mem_pending
    if pending is None:
        pytest.skip("no pending merge at this scale")
    built = pending.wait()
    pending.future = Future()
    pending.future.set_exception(RuntimeError("injected merge failure"))
    with pytest.raises(StorageError) as excinfo:
        pending.wait()
    assert pending.name in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    pending.future = Future()  # allow clean close
    pending.future.set_result(built)
    cole.close()


# =============================================================================
# one walk, two landing times: the modes share a workspace format
# =============================================================================

@pytest.mark.parametrize("first", [True, False], ids=["async-then-sync", "sync-then-async"])
def test_reopen_under_the_other_merge_mode_keeps_answering(tmp_path, first):
    """A merging group left by COLE* is retired only by the landing of
    its own (restarted) merge, also when COLE reopens the store — dropped
    or left in place its runs would shadow newer data merged below."""
    directory = str(tmp_path / "switch")
    rng = random.Random(5)
    pool = [rng.randbytes(20) for _ in range(300)]
    model = {}

    def sweep(cole, blk):
        """Overwrite every address, 10 per block."""
        for start in range(0, len(pool), 10):
            blk += 1
            cole.begin_block(blk)
            for addr in pool[start:start + 10]:
                model[addr] = rng.randbytes(32)
                cole.put(addr, model[addr])
            cole.commit_block()
        return blk

    cole = Cole(directory, make_params(first))
    blk = sweep(cole, 0)
    if first:
        assert any(level.merging.runs for level in cole.levels)
    cole.close()

    cole = Cole(directory, make_params(not first))
    for level in cole.levels:  # recovery restarts merges in either mode
        assert bool(level.merging.runs) == (level.pending is not None)
    for _ in range(4):
        blk = sweep(cole, blk)
    for addr in pool:
        assert cole.get(addr) == model[addr]
    for level in cole.levels:
        assert bool(level.merging.runs) == (level.pending is not None)
        if first:  # COLE lands inside the checkpoint: nothing stays merging
            assert not level.merging.runs
    cole.close()


@pytest.mark.parametrize("async_merge", [False, True], ids=["sync", "async"])
def test_forced_cascade_with_nothing_to_move_is_a_noop(tmp_path, async_merge):
    directory = str(tmp_path / "noop")
    cole = Cole(directory, make_params(async_merge))
    _pool, _model, digests = run_workload(cole, blocks=4)  # one natural cascade
    cole.begin_block(5)
    cole.commit_block(force_cascade=True)  # lands the flush under COLE*
    manifest = os.path.join(directory, "MANIFEST.json")
    before = (os.stat(manifest).st_ino, os.stat(manifest).st_mtime_ns, cole._view)
    cole.begin_block(6)
    root = cole.commit_block(force_cascade=True)
    assert (os.stat(manifest).st_ino, os.stat(manifest).st_mtime_ns, cole._view) == before
    assert root == cole.root_digest() != digests[0]
    cole.close()


def test_unclosed_async_engine_lets_the_interpreter_exit(tmp_path):
    """Pool threads must not pin the process open when ``close()`` is
    never called (the hand-rolled pool guaranteed it with daemon threads)."""
    script = (
        "import random, sys\n"
        "from repro.common.params import ColeParams, SystemParams\n"
        "from repro.core import Cole\n"
        "params = ColeParams(system=SystemParams(addr_size=20, value_size=32),\n"
        "                    mem_capacity=16, size_ratio=3, async_merge=True)\n"
        "cole = Cole(sys.argv[1], params)\n"
        "rng = random.Random(1)\n"
        "for blk in range(1, 61):\n"
        "    cole.begin_block(blk)\n"
        "    for _ in range(5):\n"
        "        cole.put(rng.randbytes(20), rng.randbytes(32))\n"
        "    cole.commit_block()\n"
        "assert cole._pending_merges()\n"
        "print('done')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "unclosed")],
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "done"
