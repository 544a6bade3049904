"""Ablation: what does the learned index buy over binary search?

DESIGN.md calls this out: the same run searched through its learned index
(O(layers) page reads) versus a plain binary search over the value file's
pages (O(log n) page reads).  The learned index should touch fewer pages
per lookup — the `Cmodel` factor in Table 1's get-query cost.
"""

import random

from conftest import run_once

from repro.bench.report import format_table
from repro.common.params import ColeParams, SystemParams
from repro.core.compound import MAX_BLK, compound_key
from repro.core.run import Run, encode_pairs
from repro.diskio.workspace import Workspace


def build_run(tmp_dir, num_addrs=2000, versions=4):
    system = SystemParams(addr_size=20, value_size=32, page_size=4096)
    params = ColeParams(system=system, mem_capacity=64, size_ratio=4, mht_fanout=4)
    rng = random.Random(42)
    addrs = sorted(rng.randbytes(20) for _ in range(num_addrs))
    entries = []
    for addr in addrs:
        for blk in range(1, versions + 1):
            entries.append(
                (compound_key(addr, blk), rng.randbytes(32))
            )
    entries.sort()
    workspace = Workspace(tmp_dir, system.page_size)
    pairs = encode_pairs(entries, system.key_size)
    run = Run.build(workspace, "abl", 1, iter(pairs), len(entries), params)
    return run, addrs, workspace


def binary_search_pages(run, key):
    """Floor search by binary search over value-file pages (no index)."""
    value_file = run.value_file
    low, high = 0, value_file.page_of(run.num_entries - 1)
    while low < high:
        mid = (low + high + 1) // 2
        entries = value_file.read_page_entries(mid)
        if entries[0][0] <= key:
            low = mid
        else:
            high = mid - 1
    return value_file.floor_in_page(low, key)


def test_learned_index_vs_binary_search(benchmark, series, tmp_path):
    run, addrs, workspace = build_run(str(tmp_path / "run"))
    rng = random.Random(7)
    probes = [compound_key(rng.choice(addrs), MAX_BLK) for _ in range(300)]

    def learned_lookup():
        for key in probes:
            assert run.floor_search(key) is not None

    stats = workspace.stats
    before = stats.snapshot()
    run_once(benchmark, learned_lookup)
    learned_reads = stats.delta(before).total_reads

    before = stats.snapshot()
    for key in probes:
        assert binary_search_pages(run, key) is not None
    binary_reads = stats.delta(before).total_reads

    series("\nAblation — page reads for 300 floor searches over one run")
    series(
        format_table(
            ["strategy", "page reads", "reads/lookup"],
            [
                ["learned index (Algorithm 7)", learned_reads, f"{learned_reads/300:.2f}"],
                ["binary search (no index)", binary_reads, f"{binary_reads/300:.2f}"],
            ],
        )
    )
    assert learned_reads < binary_reads
