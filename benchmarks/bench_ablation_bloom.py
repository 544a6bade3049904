"""Ablation: bloom filters on the read path (Section 4's optimization).

Gets for absent addresses must touch no run pages when blooms are on;
with blooms ignored every run is searched.  Quantifies the IO the blooms
save on COLE's multi-run read path.
"""

import random

from conftest import run_once

from repro.bench.report import format_table
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.core.compound import MAX_BLK, compound_key


def build_engine(tmp_dir):
    system = SystemParams(addr_size=20, value_size=32)
    params = ColeParams(system=system, mem_capacity=64, size_ratio=3, mht_fanout=4)
    engine = Cole(tmp_dir, params)
    rng = random.Random(11)
    pool = [rng.randbytes(20) for _ in range(200)]
    for blk in range(1, 201):
        engine.begin_block(blk)
        for _ in range(8):
            engine.put(rng.choice(pool), rng.randbytes(32))
        engine.commit_block()
    return engine, rng


def test_bloom_filters_save_read_io(benchmark, series, tmp_path):
    engine, rng = build_engine(str(tmp_path / "cole"))
    ghosts = [rng.randbytes(20) for _ in range(200)]

    def misses_with_bloom():
        for addr in ghosts:
            assert engine.get(addr) is None

    stats = engine.stats
    before = stats.snapshot()
    run_once(benchmark, misses_with_bloom)
    with_bloom = stats.delta(before).total_reads

    # Disable the blooms by searching every run unconditionally.
    runs = [src.source for src in engine._view.sources if src.kind == "run"]
    before = stats.snapshot()
    for addr in ghosts:
        key = compound_key(addr, MAX_BLK)
        for run in runs:
            run.floor_search(key)
    without_bloom = stats.delta(before).total_reads

    series("\nAblation — page reads for 200 gets of absent addresses")
    series(
        format_table(
            ["configuration", "page reads"],
            [["blooms enabled", with_bloom], ["blooms ignored", without_bloom]],
        )
    )
    assert with_bloom < without_bloom / 2
    engine.close()
