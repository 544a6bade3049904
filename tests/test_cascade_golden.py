"""Golden layout of the commit-checkpoint walk, recorded before the two
cascades became one.

``tests/fixtures/cascade_golden.json`` was written by this file's
``__main__`` against commit ``a9d06b1`` (the last tree with a
``_sync_cascade`` and an ``_async_cascade``):

    PYTHONPATH=<a9d06b1 checkout>/src python tests/test_cascade_golden.py

For {sync, async} x {leveling, tiering} it holds, per step of one seeded
150-step stream, ``root_digest``, the ``root_hash_list`` labels, the
manifest's level layout plus a digest of the whole manifest file, the
sorted workspace file names and whether the step replaced the manifest.
The stream covers natural cascades, forced cascades on an empty and on an
under-full L0, one ``rewind_to`` and one close + reopen with the lost L0
replayed from the recorded checkpoint.  The engine must keep reproducing
it byte for byte.

The rewind sits early (before any level has a merge in flight) on
purpose: at ``a9d06b1`` an asynchronous engine that rewound with merges
pending dropped their merging groups unmerged, so a later rewind would
have recorded a layout that loses data (``test_rewind`` covers that case
against a model instead).
"""

import hashlib
import json
import os
import random
import sys
import tempfile

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.core.manifest import MANIFEST_NAME

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "cascade_golden.json")
CONFIGS = [
    (mode, policy) for mode in ("sync", "async") for policy in ("leveling", "tiering")
]
STEPS = 150
FORCED_AT = 9  # scripted: lands the second flush, so nothing is in flight ...
REWIND_AT, REWIND_TO = 12, 6  # ... when step 12 rewinds into that flush's run
REOPEN_AT = 101


def make_params(mode: str, policy: str) -> ColeParams:
    return ColeParams(
        system=SystemParams(addr_size=20, value_size=32),
        mem_capacity=16,
        size_ratio=3,
        async_merge=mode == "async",
        compaction=policy,
    )


def _manifest_state(directory: str):
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        return None, None, None
    with open(path, "rb") as handle:
        raw = handle.read()
    levels = {
        level: {role: [record["name"] for record in records] for role, records in groups.items()}
        for level, groups in json.loads(raw)["levels"].items()
    }
    stat = os.stat(path)
    return levels, hashlib.sha256(raw).hexdigest(), (stat.st_ino, stat.st_mtime_ns)


def record(mode: str, policy: str, directory: str) -> dict:
    """Drive the seeded stream; returns ``{"events": [...], "steps": [...]}``.

    A step's ``labels`` / ``levels`` / ``manifest_sha`` / ``files`` are
    present only when they differ from the previous step's (most steps do
    not cascade), ``root`` and ``saved`` always.
    """
    params = make_params(mode, policy)
    rng = random.Random(2024)
    pool = [rng.randbytes(20) for _ in range(48)]
    cole = Cole(directory, params)
    model: dict = {}
    history: list = []  # (height, puts, force) since the rewind, for replay
    events, steps = [], []
    previous: dict = {}
    height = 0
    was_full = False
    for step in range(1, STEPS + 1):
        height += 1
        # A block with no puts and a forced cascade: right after a natural
        # cascade it meets an empty L0, otherwise an under-full one — what
        # the sharded engine's coordinated commits do to cold shards.
        if step <= REWIND_AT:
            forced, count = step == FORCED_AT, 5
        else:
            forced = (was_full and rng.random() < 0.4) or rng.random() < 0.05
            count = rng.randint(3, 7)
        puts = [] if forced else [
            (rng.choice(pool), rng.randbytes(32)) for _ in range(count)
        ]
        cole.begin_block(height)
        cole.put_many(puts)
        empty = len(cole.mem_writing) == 0
        was_full = cole.needs_cascade()
        stamp = _manifest_state(directory)[2]
        root = cole.commit_block(force_cascade=True if forced else None)
        history.append((height, puts, forced))
        for addr, value in puts:
            model.setdefault(addr, []).append((height, value))
        kind = "put"
        if forced:
            kind = "forced-empty" if empty else "forced-underfull"
        elif was_full:
            kind = "cascade"
        if step == REWIND_AT:
            assert cole.mem_pending is None
            assert all(level.pending is None for level in cole.levels)
            assert cole.checkpoint_blk > REWIND_TO  # a run is rebuilt
            cole.rewind_to(REWIND_TO)
            kind += "+rewind"
            height = REWIND_TO
            history = []
            for versions in model.values():
                versions[:] = [(blk, value) for blk, value in versions if blk <= REWIND_TO]
            root = cole.root_digest()
        if step == REOPEN_AT:
            # The in-memory level dies with the process; replay it from
            # the recorded checkpoint, as the WAL layer does.
            cole.close()
            cole = Cole(directory, params)
            kind += "+reopen"
            for blk, old_puts, old_forced in history:
                if blk > cole.checkpoint_blk:
                    cole.begin_block(blk)
                    cole.put_many(old_puts)
                    cole.commit_block(force_cascade=True if old_forced else None)
            root = cole.root_digest()
        events.append(kind)
        # Uncommitted outputs are part of the file list: let them finish
        # (this commits nothing) so the list does not depend on timing.
        cole.wait_for_merges()
        levels, manifest_sha, after = _manifest_state(directory)
        full = {
            "labels": [label for label, _digest in cole.root_hash_list()],
            "levels": levels,
            "manifest_sha": manifest_sha,
            "files": sorted(cole.workspace.list_files()),
        }
        entry = {"root": root.hex(), "saved": after != stamp}
        entry.update({k: v for k, v in full.items() if previous.get(k) != v})
        previous = full
        steps.append(entry)
        if step % 10 == 0 or step == STEPS:  # the golden is of a *correct* run
            for addr in pool:
                versions = model.get(addr)
                assert cole.get(addr) == (versions[-1][1] if versions else None)
    cole.close()
    return {"events": events, "steps": steps}


def record_all() -> dict:
    golden = {}
    for mode, policy in CONFIGS:
        with tempfile.TemporaryDirectory() as directory:
            golden[f"{mode}-{policy}"] = record(mode, policy, directory)
    return golden


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("mode,policy", CONFIGS)
def test_checkpoint_walk_reproduces_parent_golden(tmp_path, golden, mode, policy):
    expected = golden[f"{mode}-{policy}"]
    got = json.loads(json.dumps(record(mode, policy, str(tmp_path))))
    assert got["events"] == expected["events"]
    for step, (mine, theirs) in enumerate(zip(got["steps"], expected["steps"]), 1):
        if theirs["saved"] and "manifest_sha" not in theirs:
            # a9d06b1's asynchronous cascade re-saved a byte-identical
            # manifest when it had nothing to flush, land or merge; the
            # single walk treats that as the no-op it is, in both modes.
            assert (mode, expected["events"][step - 1]) == ("async", "forced-empty")
            theirs = dict(theirs, saved=False)
        assert mine == theirs, f"step {step} ({expected['events'][step - 1]})"
    assert len(got["steps"]) == len(expected["steps"]) == STEPS


def test_golden_stream_covers_what_it_claims(golden):
    """The stream is the same for every configuration and contains each
    kind of step; a forced cascade on an empty L0 saves no manifest in
    synchronous mode (it is a no-op there)."""
    streams = [golden[f"{mode}-{policy}"] for mode, policy in CONFIGS]
    events = streams[0]["events"]
    assert all(stream["events"] == events for stream in streams)
    kinds = {part for event in events for part in event.split("+")}
    assert kinds == {
        "put", "cascade", "forced-empty", "forced-underfull", "rewind", "reopen",
    }
    for mode, policy in CONFIGS:
        stream = golden[f"{mode}-{policy}"]
        deepest = max(
            int(level) for step in stream["steps"] for level in step.get("levels") or {}
        )
        assert deepest >= 3, (mode, policy)
        for event, step in zip(events, stream["steps"]):
            if mode == "sync" and event == "forced-empty":
                assert not step["saved"]
            if event in ("cascade", "forced-underfull"):
                assert step["saved"]


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump(record_all(), handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
