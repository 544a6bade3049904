"""Figure 20 (extension): key-ordered range-scan throughput (YCSB-E).

Not a paper figure — the range-scan experiment of the cursor subsystem
(``repro.core.cursor``).  One multi-version data set is loaded into a
``cole-shard`` engine at N = 1 and N = 4 shards; zipfian-start scans of
varying length (the YCSB workload E shape) are then timed against each.
The driver first verifies every engine's scan results byte-identical to
a brute-force in-memory model (latest and historical ``at_blk``), so
the timed loops measure *correct* scans.

``scans/s`` is the rate of a modelled scale-out deployment, measured
with fig19's isolation discipline: a scatter-gather coordinator asks
each shard (an independent engine a deployment places per machine) for
an adaptive page of every scan, refilled by continuation, and each shard
is timed alone; the deployment is charged the slowest shard plus the
full coordinator k-way merge.  No code path in the tree issues that
request pattern — ``ShardedCole.scan`` is one merged cursor, and
``ClusterClient.scan`` asks every shard for the full ``limit``.
``merged/s`` is the single-interpreter ``ShardedCole.scan`` rate: one
merged cursor over every shard's sources on the caller's thread, so the
N shards' seek sets run serially, reported for transparency.

Expected shape: scans/s falls with scan length (more pages streamed per
scan), entries/s rises (per-scan seek cost amortizes), and the N=4
deployment beats the single shard at every length — each shard seeks a
shallower level structure and streams a quarter of the range.

Sweeps are interleaved and the best of three runs per point is
reported, like the fig16 sweep.
"""

from conftest import run_once

from repro.bench.experiments import run_scan_throughput
from repro.bench.report import format_rate, format_table

SHARD_COUNTS = (1, 4)
SCAN_LENGTHS = (8, 32, 128)


def test_fig20_scan_throughput(benchmark, series):
    rows = run_once(
        benchmark,
        run_scan_throughput,
        shard_counts=SHARD_COUNTS,
        scan_lengths=SCAN_LENGTHS,
        num_addresses=2048,
        blocks=96,
        scans_per_point=200,
        repeats=3,
    )
    series("\nFigure 20 — scans: throughput vs scan length, sharded vs single")
    series(
        format_table(
            ["shards", "scan len", "scans", "entries", "scans/s", "merged/s",
             "entries/s"],
            [
                [
                    row["shards"],
                    row["scan_len"],
                    row["scans"],
                    row["entries"],
                    format_rate(row["scans_per_s"], 1.0),
                    format_rate(row["merged_scans_per_s"], 1.0),
                    format_rate(row["entries_per_s"], 1.0),
                ]
                for row in rows
            ],
        )
    )
    by_point = {(row["shards"], row["scan_len"]): row for row in rows}
    # Identical work per shard count: the verified scan streams returned
    # the same entry count regardless of N (results are checked
    # byte-identical against the brute-force model inside the driver).
    for length in SCAN_LENGTHS:
        entries = {by_point[(n, length)]["entries"] for n in SHARD_COUNTS}
        assert len(entries) == 1, f"scan results diverged at length {length}"
    # The headline claim: the N=4 deployment serves scans at least as
    # fast as the single shard, at every measured length.
    for length in SCAN_LENGTHS:
        assert (
            by_point[(4, length)]["scans_per_s"]
            >= by_point[(1, length)]["scans_per_s"]
        ), f"sharded deployment slower than single shard at length {length}"
    # Longer scans stream more entries per second (seek amortization).
    assert (
        by_point[(1, max(SCAN_LENGTHS))]["entries_per_s"]
        > by_point[(1, min(SCAN_LENGTHS))]["entries_per_s"]
    )
    # The in-process merged path is disclosed, not hidden: it exists,
    # answers correctly, and runs within an order of magnitude.
    assert (
        by_point[(4, max(SCAN_LENGTHS))]["merged_scans_per_s"]
        > by_point[(1, max(SCAN_LENGTHS))]["scans_per_s"] * 0.1
    )
