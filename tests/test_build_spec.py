"""A run build is a value: every :class:`BuildSpec` a chain produces —
a rewind's rebuilds included — pickles, and replayed by :func:`execute`
in a fresh workspace holding only its source runs it writes the engine's
four files byte for byte."""

import os
import pickle
import random
from pathlib import Path

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core.merge import BuildSpec
from repro.core.run import RUN_SUFFIXES
from repro.core.storage import Cole, execute
from repro.diskio.workspace import Workspace

PARAMS = ColeParams(
    system=SystemParams(addr_size=8, value_size=8, page_size=256),
    mem_capacity=16,
    size_ratio=3,
)


def _record_specs(engine, tmp_path):
    """Wrap ``engine``'s spawn: join each build, link its sources into a
    directory of their own and read the engine's output files, before
    a later checkpoint can delete either."""
    records = []
    spawn = engine.scheduler.spawn

    def recording_spawn(spec: BuildSpec, *args):
        pending = spawn(spec, *args)
        run = pending.wait()
        fresh = tmp_path / f"replay-{len(records)}"
        fresh.mkdir()
        for name, _entries in spec.sources:
            for suffix in RUN_SUFFIXES:
                os.link(engine.workspace.path_of(name + suffix), fresh / (name + suffix))
        built = {
            suffix: Path(engine.workspace.path_of(spec.name + suffix)).read_bytes()
            for suffix in RUN_SUFFIXES
        }
        records.append((spec, str(fresh), built, run.merkle_root))
        return pending

    engine.scheduler.spawn = recording_spawn
    return records


@pytest.mark.parametrize("async_merge", [True, False], ids=["cole-star", "cole"])
def test_every_spec_of_a_chain_pickles_and_replays_byte_identical(tmp_path, async_merge):
    params = ColeParams(
        system=PARAMS.system, mem_capacity=PARAMS.mem_capacity,
        size_ratio=PARAMS.size_ratio, async_merge=async_merge,
    )
    engine = Cole(str(tmp_path / "engine"), params)
    records = _record_specs(engine, tmp_path)
    rng = random.Random(86)
    for height in range(1, 301):
        engine.begin_block(height)
        engine.put_many(
            (rng.randrange(64).to_bytes(8, "big"), rng.randbytes(8)) for _ in range(4)
        )
        engine.commit_block()
    engine.rewind_to(200)
    engine.close()

    kinds = {(spec.kind, bool(spec.pairs)) for spec, *_ in records}
    # COLE* builds L0 and the levels apart; COLE merges L0 into a level.
    assert kinds == (
        {("flush", True), ("merge", False)} if async_merge
        else {("flush", True), ("merge", True)}
    )
    assert max(spec.level for spec, *_ in records) >= 3
    # Rewind rebuilds a deep run from its surviving pairs alone.
    assert any(spec.level >= 2 and not spec.sources for spec, *_ in records)
    for spec, fresh, built, merkle_root in records:
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        with Workspace(fresh, params.system.page_size) as workspace:
            run = execute(workspace, params, copy)
            assert run.merkle_root == merkle_root, spec.name
            for suffix, data in built.items():
                assert Path(fresh, spec.name + suffix).read_bytes() == data, spec.name + suffix
