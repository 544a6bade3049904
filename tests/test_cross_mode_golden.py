"""Golden layout of one store reopened across the two merge modes.

``tests/fixtures/cross_mode_golden.json`` was written by this file's
``__main__`` against commit ``52a083f`` (the last tree whose COLE built
each step of a cascade as its own run):

    PYTHONPATH=<52a083f checkout>/src python tests/test_cross_mode_golden.py

One seeded stream runs three phases on one workspace: COLE* (``async_merge=True``), closed with merges in flight;
reopened as COLE, which restarts those merges inline and lands each at
its level's next overflow; closed again and reopened as COLE*.  Each
reopen replays the lost L0 from ``checkpoint_blk``, as the WAL layer
does.  Per commit the fixture holds ``root_digest``, the
``root_hash_list`` labels, the manifest's level layout and the sorted
workspace file names (the last three only when they changed).  The
manifest bytes are not pinned: its write-amplification counters count
builds, not layout.  The fixture's one key, ``leveling``, names the
policy: it was recorded when a second one, ``tiering``, existed.
"""

import json
import os
import random
import sys
import tempfile

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from test_cascade_golden import _manifest_state

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "cross_mode_golden.json")
FIXTURE_KEY = "leveling"
PHASES = (("async", 70), ("sync", 70), ("async", 40))  # (mode, blocks)


def make_params(mode: str) -> ColeParams:
    return ColeParams(
        system=SystemParams(addr_size=20, value_size=32),
        mem_capacity=16,
        size_ratio=3,
        async_merge=mode == "async",
    )


def record(directory: str) -> dict:
    """Drive the seeded stream; returns ``{"events": [...], "steps": [...]}``."""
    rng = random.Random(49)
    pool = [rng.randbytes(20) for _ in range(64)]
    model: dict = {}
    history: list = []  # (height, puts, forced) of every committed block
    events, steps = [], []
    previous: dict = {}
    height = 0
    cole = None
    restarted = landed = 0

    def commit(kind: str, puts, forced: bool) -> None:
        nonlocal previous
        root = cole.commit_block(force_cascade=True if forced else None)
        cole.wait_for_merges()  # the file list must not depend on timing
        levels, _sha, _stamp = _manifest_state(directory)
        full = {
            "labels": [label for label, _digest in cole.root_hash_list()],
            "levels": levels,
            "files": sorted(cole.workspace.list_files()),
        }
        entry = {"root": root.hex()}
        entry.update({k: v for k, v in full.items() if previous.get(k) != v})
        previous = full
        events.append(kind)
        steps.append(entry)

    for phase, (mode, blocks) in enumerate(PHASES):
        params = make_params(mode)
        if cole is not None:
            if mode == "sync":
                assert any(level.merging for level in cole.levels), (
                    "the COLE* phase must close with merges in flight"
                )
            cole.close()
        cole = Cole(directory, params)
        if mode == "sync":
            restarted = sum(level.pending is not None for level in cole.levels)
        for blk, puts, forced in history:
            if blk > cole.checkpoint_blk:
                cole.begin_block(blk)
                cole.put_many(puts)
                commit(f"{mode}-replay", puts, forced)
        for _ in range(blocks):
            height += 1
            forced = rng.random() < 0.06
            puts = [] if forced else [
                (rng.choice(pool), rng.randbytes(32)) for _ in range(rng.randint(3, 7))
            ]
            cole.begin_block(height)
            cole.put_many(puts)
            commit(f"{mode}-forced" if forced else mode, puts, forced)
            history.append((height, puts, forced))
            for addr, value in puts:
                model.setdefault(addr, []).append(value)
        if mode == "sync":
            landed = restarted - sum(level.pending is not None for level in cole.levels)
        for addr in pool:  # the golden is of a *correct* run
            versions = model.get(addr)
            assert cole.get(addr) == (versions[-1] if versions else None), phase
    cole.close()
    assert landed > 0, "a restarted merge must land during the COLE phase"
    return {"events": events, "steps": steps}


def record_all() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        return {FIXTURE_KEY: record(directory)}


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        return json.load(handle)


def test_cross_mode_stream_reproduces_golden(tmp_path, golden):
    expected = golden[FIXTURE_KEY]
    got = json.loads(json.dumps(record(str(tmp_path))))
    assert got["events"] == expected["events"]
    for step, (mine, theirs) in enumerate(zip(got["steps"], expected["steps"]), 1):
        assert mine == theirs, f"step {step} ({expected['events'][step - 1]})"
    assert len(got["steps"]) == len(expected["steps"])


if __name__ == "__main__":
    with open(FIXTURE, "w") as handle:
        json.dump(record_all(), handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
