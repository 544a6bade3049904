"""The cascade's one trigger: a level merges at ``size_ratio`` runs.

Leveling must stay *byte-identical* to the engine's historical
behavior — two pinned root digests (sync, async) regression-pin it.  A
workspace whose manifest records another policy is refused, and the
write-accounting counters persist across a reopen.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.core.manifest import MANIFEST_NAME, load_manifest

SYSTEM = SystemParams(addr_size=20, value_size=24)
PARAMS = ColeParams(system=SYSTEM, mem_capacity=64, size_ratio=4)


def addr(i: int) -> bytes:
    return hashlib.sha256(f"pin-{i}".encode()).digest()[:20]


def value(i: int, b: int) -> bytes:
    return hashlib.sha256(f"val-{i}-{b}".encode()).digest()[:24]


# =============================================================================
# leveling is byte-identical to the historical cascade
# =============================================================================

# Root digests captured from the engine *before* the policy extraction:
# 60 blocks x 40 puts over 300 addresses, then an under-full block 61
# force-cascaded.  The leveling policy
# must reproduce them bit for bit — these pins are the proof that the
# refactor moved the trigger without changing it.
PINNED_ROOTS = {
    "sync": "7bf7bcebeb7edff0e5fe9b10fbf99d61f643713d85ac86530b51fd19bc6a108c",
    "async": "3d4eabf80480fa4edf111447f52a6520f07a0044eef10d7de884d0f3d40b43e3",
}


def drive_pinned(engine) -> str:
    n = 0
    for blk in range(1, 61):
        engine.begin_block(blk)
        for _ in range(40):
            engine.put(addr(n % 300), value(n % 300, blk))
            n += 1
        engine.commit_block()
    engine.begin_block(61)
    for i in range(7):
        engine.put(addr(1000 + i), value(1000 + i, 61))
    engine.commit_block(force_cascade=True)
    engine.wait_for_merges()
    final = engine.root_digest()
    engine.close()
    return final.hex()


def test_leveling_pinned_root_sync(tmp_path):
    assert drive_pinned(Cole(str(tmp_path), PARAMS)) == PINNED_ROOTS["sync"]


def test_leveling_pinned_root_async(tmp_path):
    assert (
        drive_pinned(Cole(str(tmp_path), dataclasses.replace(PARAMS, async_merge=True)))
        == PINNED_ROOTS["async"]
    )


# =============================================================================
# leveling is the one policy
# =============================================================================

def test_params_validate_compaction():
    assert ColeParams(compaction="leveling").compaction == "leveling"
    for other in ("tiering", "bogus"):
        with pytest.raises(ValueError, match="'leveling'"):
            ColeParams(compaction=other)


# =============================================================================
# a workspace laid out by another policy is refused
# =============================================================================

def seed_workspace(directory: str) -> str:
    engine = Cole(directory, PARAMS)
    n = 0
    for blk in range(1, 9):
        engine.begin_block(blk)
        for _ in range(40):
            engine.put(addr(n), value(n, blk))
            n += 1
        engine.commit_block()
    engine.wait_for_merges()
    root = engine.root_digest().hex()
    engine.close()
    return root


def edit_manifest(directory: str, **changes) -> None:
    """Set (or, given ``None``, drop) keys of the workspace's manifest."""
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    for key, change in changes.items():
        if change is None:
            payload.pop(key, None)
        else:
            payload[key] = change
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def test_reopen_with_other_policy_fails(tmp_path):
    directory = str(tmp_path)
    seed_workspace(directory)
    edit_manifest(directory, compaction="tiering")
    before = sorted(os.listdir(directory))
    with pytest.raises(StorageError, match="repro export"):
        Cole(directory, PARAMS)
    assert sorted(os.listdir(directory)) == before  # no run file was discarded


def test_legacy_manifest_defaults_to_leveling(tmp_path):
    directory = str(tmp_path)
    root = seed_workspace(directory)
    # Strip the policy field, as a manifest written before the field
    # existed would look: committed runs + no recorded policy == leveling.
    edit_manifest(directory, compaction=None, bytes_flushed=None, bytes_rewritten=None)
    engine = Cole(directory, PARAMS)
    assert engine.root_digest().hex() == root
    engine.begin_block(9)
    engine.put(addr(0), value(0, 9))
    engine.commit_block(force_cascade=True)
    engine.close()
    assert load_manifest(directory).checkpoint_blk == 9


# =============================================================================
# the write-accounting counters are durable
# =============================================================================

def drive_underfull(engine, blocks: int = 60, per_block: int = 13) -> dict:
    """Force a cascade every block so under-full runs reach the levels."""
    model = {}
    n = 0
    for blk in range(1, blocks + 1):
        writes = {}
        for _ in range(per_block):
            a = addr(n % 200)
            writes[a] = value(n % 200, blk)
            n += 1
        engine.begin_block(blk)
        engine.put_many(sorted(writes.items()))
        engine.commit_block(force_cascade=True)
        model.update(writes)
    engine.wait_for_merges()
    return model


def test_counters_persist_across_reopen(tmp_path):
    directory = str(tmp_path)
    engine = Cole(directory, PARAMS)
    drive_underfull(engine, blocks=24)
    before = engine.compaction_stats()
    engine.close()
    assert before["bytes_flushed"] > 0
    assert before["bytes_rewritten"] > 0

    reopened = Cole(directory, PARAMS)
    after = reopened.compaction_stats()
    reopened.close()
    assert after["bytes_flushed"] == before["bytes_flushed"]
    assert after["bytes_rewritten"] == before["bytes_rewritten"]

    manifest = load_manifest(directory)
    assert manifest.bytes_flushed == before["bytes_flushed"]
    assert manifest.bytes_rewritten == before["bytes_rewritten"]

