"""Figure 16 (extension): put throughput and storage vs shard count.

Not a paper figure — the scale-out experiment of this reproduction's
sharding layer (``repro.sharding``).  One identical put stream is fed to
``cole-shard`` at N = 1, 2, 4, 8 shards, each shard an independent COLE*
instance sized like the single-node engine.  What was measured: on 2
vCPUs, N = 1..8 are within noise of each other — the commit pool only
overlaps the file writes and fsyncs that release the GIL — so throughput
is machine-dependent and the CPU count is printed with the series rather
than asserted on.  Storage grows mildly with N (per-shard level
structure).  The composite ``Hstate`` column is deterministic: repeated
runs print identical values per N.

Sweeps are interleaved and the fastest of three runs per N is reported,
so background noise does not masquerade as (or hide) scaling.
"""

import os

from conftest import run_once

from repro.bench.experiments import run_sharding_scalability
from repro.bench.report import format_bytes, format_table

SHARD_COUNTS = (1, 2, 4, 8)


def test_fig16_sharding_scalability(benchmark, series):
    rows = run_once(
        benchmark,
        run_sharding_scalability,
        shard_counts=SHARD_COUNTS,
        blocks=400,
        puts_per_block=512,
        repeats=3,
    )
    series("\nFigure 16 — sharding: put throughput and storage vs shard count")
    series(f"cpu_count: {os.cpu_count()}")
    series(
        format_table(
            ["shards", "puts", "elapsed", "puts/s", "storage", "Hstate[:16]"],
            [
                [
                    row["shards"],
                    row["puts"],
                    f"{row['elapsed_s']:.2f}s",
                    f"{row['puts_per_s']:.0f}",
                    format_bytes(row["storage_bytes"]),
                    row["hstate"],
                ]
                for row in rows
            ],
        )
    )
    # Every configuration ingested the identical stream.
    assert len({row["puts"] for row in rows}) == 1
