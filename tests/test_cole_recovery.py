"""Crash-recovery tests (Section 4.3): manifest, replay, aborted merges."""

import os
import random

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.core.manifest import load_manifest


def make_params(async_merge=False):
    system = SystemParams(addr_size=20, value_size=32)
    return ColeParams(
        system=system, mem_capacity=16, size_ratio=3, mht_fanout=4,
        async_merge=async_merge,
    )


def generate_log(seed=17, blocks=80, pool_size=24, puts_per_block=5):
    rng = random.Random(seed)
    pool = [rng.randbytes(20) for _ in range(pool_size)]
    log = []
    for blk in range(1, blocks + 1):
        ops = [(rng.choice(pool), rng.randbytes(32)) for _ in range(puts_per_block)]
        log.append((blk, ops))
    return log


def apply_log(cole, log, from_blk=0):
    for blk, ops in log:
        if blk <= from_blk:
            continue
        cole.begin_block(blk)
        for addr, value in ops:
            cole.put(addr, value)
        cole.commit_block()


@pytest.mark.parametrize("async_merge", [False, True], ids=["sync", "async"])
def test_replay_restores_root_digest(tmp_path, async_merge):
    params = make_params(async_merge)
    log = generate_log()

    reference = Cole(str(tmp_path / "ref"), params)
    apply_log(reference, log)
    expected = reference.root_digest()

    crashed = Cole(str(tmp_path / "crash"), params)
    apply_log(crashed, log)
    checkpoint = crashed._checkpoint_blk
    crashed.wait_for_merges()
    crashed.workspace.close()  # "crash": no clean shutdown bookkeeping

    recovered = Cole(str(tmp_path / "crash"), params)
    assert recovered._checkpoint_blk == checkpoint
    apply_log(recovered, log, from_blk=checkpoint)
    assert recovered.root_digest() == expected
    reference.close()
    recovered.close()


def test_recovery_discards_unknown_files(tmp_path):
    params = make_params()
    directory = str(tmp_path / "d")
    cole = Cole(directory, params)
    apply_log(cole, generate_log(blocks=40))
    cole.close()
    # Simulate a torn merge: stray files not named by the manifest.
    for name in ("L9_99999999.val", "L9_99999999.idx", "junk.tmp"):
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(b"garbage")
    recovered = Cole(directory, params)
    files = set(recovered.workspace.list_files())
    assert "L9_99999999.val" not in files
    assert "junk.tmp" not in files
    recovered.close()


def test_manifest_round_trip(tmp_path):
    params = make_params()
    directory = str(tmp_path / "m")
    cole = Cole(directory, params)
    apply_log(cole, generate_log(blocks=60))
    runs_before = sorted(
        run.name for level in cole.levels for run in level.all_runs()
    )
    cole.close()
    manifest = load_manifest(directory)
    named = sorted(
        record.name
        for groups in manifest.levels.values()
        for records in groups.values()
        for record in records
    )
    assert named == runs_before


def test_recovered_instance_serves_reads(tmp_path):
    params = make_params()
    directory = str(tmp_path / "r")
    log = generate_log(blocks=60)
    cole = Cole(directory, params)
    apply_log(cole, log)
    checkpoint = cole._checkpoint_blk
    cole.close()

    recovered = Cole(directory, params)
    apply_log(recovered, log, from_blk=checkpoint)
    model = {}
    for blk, ops in log:
        for addr, value in ops:
            model[addr] = value
    for addr, value in model.items():
        assert recovered.get(addr) == value
    recovered.close()


def test_async_recovery_restarts_aborted_merges(tmp_path):
    params = make_params(async_merge=True)
    directory = str(tmp_path / "a")
    log = generate_log(blocks=120, pool_size=48)
    cole = Cole(directory, params)
    apply_log(cole, log)
    has_merging = any(level.merging for level in cole.levels)
    cole.wait_for_merges()
    cole.workspace.close()

    recovered = Cole(directory, params)
    if has_merging:
        assert any(
            level.pending is not None or not level.merging
            for level in recovered.levels
        )
    recovered.wait_for_merges()
    recovered.close()


def test_empty_directory_recovers_to_empty_state(tmp_path):
    params = make_params()
    cole = Cole(str(tmp_path / "fresh"), params)
    assert cole.num_disk_levels() == 0
    assert cole.get(b"\x00" * 20) is None
    cole.close()
