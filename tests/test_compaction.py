"""The pluggable compaction policy (leveling vs tiering).

The leveling policy must be *byte-identical* to the engine's historical
behavior — two pinned root digests (sync, async) regression-pin it.
Tiering may lay files out differently but must serve identical
content, merge strictly less under under-full flushes, keep read fanout
bounded, and refuse to reopen a workspace committed under the other
policy.
"""

import hashlib
import os

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import COMPACTION_POLICIES, Cole, make_policy
from repro.core.compaction import TIERING_FANOUT_FACTOR
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
        drive_pinned(Cole(str(tmp_path), PARAMS.with_async()))
        == PINNED_ROOTS["async"]
    )


# =============================================================================
# the policy objects themselves
# =============================================================================

def test_policy_registry():
    assert set(COMPACTION_POLICIES) == {"leveling", "tiering"}
    for name in COMPACTION_POLICIES:
        assert make_policy(name).name == name
    with pytest.raises(StorageError):
        make_policy("lazy")


def test_params_validate_compaction():
    assert ColeParams(compaction="tiering").compaction == "tiering"
    assert PARAMS.with_compaction("tiering").compaction == "tiering"
    with pytest.raises(ValueError):
        ColeParams(compaction="bogus")


# =============================================================================
# tiering: identical content, fewer rewritten bytes, bounded fanout
# =============================================================================

def drive_underfull(engine, blocks: int = 60, per_block: int = 13) -> dict:
    """Force a cascade every block so under-full runs reach the levels —
    the regime where leveling and tiering genuinely diverge."""
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


def test_tiering_same_content_fewer_merge_bytes(tmp_path):
    outcomes = {}
    for policy in ("leveling", "tiering"):
        engine = Cole(
            str(tmp_path / policy), PARAMS.with_compaction(policy)
        )
        model = drive_underfull(engine)
        for a, expected in model.items():
            assert engine.get(a) == expected, (policy, a.hex())
        outcomes[policy] = engine.compaction_stats()
        engine.close()
    leveling, tiering = outcomes["leveling"], outcomes["tiering"]
    # COLE builds one run per cascade: a flush that a full level 1 merges
    # away in the same commit is never written on its own, so how the
    # bytes split into flushed and rewritten follows the policy.  The
    # policies are compared on every byte they wrote.
    written = {
        policy: stats["bytes_flushed"] + stats["bytes_rewritten"]
        for policy, stats in outcomes.items()
    }
    assert written["tiering"] < written["leveling"]
    assert tiering["bytes_rewritten"] < leveling["bytes_rewritten"]
    assert tiering["write_amp"] < leveling["write_amp"]
    assert tiering["policy"] == "tiering"
    assert leveling["policy"] == "leveling"


def test_tiering_fanout_stays_bounded(tmp_path):
    # Tiny forced flushes pile runs into L1 far below its entry
    # capacity; the fanout cap must trigger a merge before a group
    # grows past TIERING_FANOUT_FACTOR * T runs.
    params = ColeParams(
        system=SYSTEM, mem_capacity=64, size_ratio=2, compaction="tiering"
    )
    engine = Cole(str(tmp_path), params)
    cap = TIERING_FANOUT_FACTOR * params.size_ratio
    max_runs = 0
    n = 0
    for blk in range(1, 81):
        engine.begin_block(blk)
        for _ in range(4):
            engine.put(addr(n), value(n, blk))
            n += 1
        engine.commit_block(force_cascade=True)
        if engine.levels:
            max_runs = max(max_runs, len(engine.levels[0].writing))
    engine.close()
    assert max_runs <= cap
    # The cap must actually have been the trigger: the workload keeps
    # entries below L1's capacity, so without the cap runs would pile up
    # unboundedly.
    assert max_runs >= cap - 1


# =============================================================================
# the policy is a durable property of the workspace
# =============================================================================

def seed_workspace(directory: str, compaction: str = "leveling") -> str:
    engine = Cole(directory, PARAMS.with_compaction(compaction))
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


def test_reopen_with_other_policy_fails(tmp_path):
    directory = str(tmp_path)
    seed_workspace(directory, "leveling")
    with pytest.raises(StorageError, match="compaction='leveling'"):
        Cole(directory, PARAMS.with_compaction("tiering"))
    # The recorded policy still opens fine.
    Cole(directory, PARAMS).close()


def test_legacy_manifest_defaults_to_leveling(tmp_path):
    import json

    directory = str(tmp_path)
    seed_workspace(directory, "leveling")
    # Strip the policy field, as a manifest written before this release
    # would look: committed runs + no recorded policy == leveling.
    path = os.path.join(directory, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    for key in ("compaction", "bytes_flushed", "bytes_rewritten"):
        payload.pop(key, None)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    with pytest.raises(StorageError):
        Cole(directory, PARAMS.with_compaction("tiering"))
    engine = Cole(directory, PARAMS)
    assert engine.compaction_stats()["policy"] == "leveling"
    engine.close()


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
    assert manifest.compaction == "leveling"
    assert manifest.bytes_flushed == before["bytes_flushed"]
    assert manifest.bytes_rewritten == before["bytes_rewritten"]

