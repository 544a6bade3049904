"""Percentile math, per-repeat aggregation and process accounting.

Percentiles are exact (nearest rank over the raw samples, no histogram
buckets).  A percentile is *resolved* only when at least
``MIN_BEYOND`` samples lie beyond it; below that the value is still
printed (the output schema is fixed) but flagged unresolved.
"""

from __future__ import annotations

import math
import os
import resource
from statistics import median
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

MIN_BEYOND = 10
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(samples: Sequence[float], q: float) -> Tuple[float, bool]:
    """Nearest-rank ``q``-quantile (0 < q < 1) and whether it is resolved.

    ``resolved`` is True when at least :data:`MIN_BEYOND` samples are
    strictly past the returned rank.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))  # 1-based nearest rank
    beyond = len(ordered) - rank
    return ordered[rank - 1], beyond >= MIN_BEYOND


@dataclass
class Repeat:
    """What one timed repeat measured."""

    wall_s: float
    cpu_s: float  # bench process + server subprocess, user + sys
    ops: int  # addresses written or read
    requests: int
    latencies_s: List[float]
    client_cpu_s: float = 0.0
    kinds: Dict[str, List[float]] = field(default_factory=dict)  # latency by request kind
    pages_read: int = 0  # engine page reads (IOStats / STATS io.page_reads delta)


def summarize(repeats: Sequence[Repeat]) -> Dict[str, dict]:
    """The timing metrics of a workload's repeats, as measured.

    Each value is the median of the per-repeat values: the repeats are
    short and many, so the median sheds the ones a noisy neighbour
    disturbed.  A tail percentile is resolved when every repeat leaves at
    least ``MIN_BEYOND`` samples beyond it.
    """
    p95 = [percentile(rep.latencies_s, 0.95) for rep in repeats]
    p99 = [percentile(rep.latencies_s, 0.99) for rep in repeats]
    per_repeat = {
        "ops_per_s": [rep.ops / rep.wall_s for rep in repeats],
        "req_p50_ms": [percentile(rep.latencies_s, 0.5)[0] * 1e3 for rep in repeats],
        "req_p95_ms": [value * 1e3 for value, _resolved in p95],
        "req_p99_ms": [value * 1e3 for value, _resolved in p99],
        "cpu_us_per_op": [rep.cpu_s / rep.ops * 1e6 for rep in repeats],
    }
    out = {name: {"value": median(values), "repeats": values}
           for name, values in per_repeat.items()}
    samples = sum(len(rep.latencies_s) for rep in repeats)
    out["req_p50_ms"]["samples"] = samples
    for name, tails in (("req_p95_ms", p95), ("req_p99_ms", p99)):
        out[name]["samples"] = samples
        out[name]["resolved"] = all(resolved for _value, resolved in tails)
    return out


def end_to_end_metrics(
    repeats: Sequence[Repeat],
    setup_times: Sequence[float],
    peak_rss_mb: float,
    space: float,
    written: float,
    read_pages: bool,
) -> Dict[str, dict]:
    """Every metric of one untraced run: the ones ``BENCHMARK.json``
    declares and the extra ones ``--compare`` guards (``compare.EXTRA``).
    ``read_pages``: the workload reads, so ``read_pages_per_op`` is defined."""
    out = summarize(repeats)
    out.update({
        "setup_s": {"value": median(setup_times), "repeats": list(setup_times)},
        "peak_rss_mb": {"value": peak_rss_mb},
        "space_bytes_per_user_byte": {"value": space},
        "write_bytes_per_user_byte": {"value": written},
    })
    if read_pages:
        values = [rep.pages_read / rep.ops for rep in repeats]
        out["read_pages_per_op"] = {"value": median(values), "repeats": values}
    return out


def overhead_frac(untraced: Repeat, traced: Repeat) -> float:
    """Share of throughput the spans cost: 1 - traced / untraced ops/s."""
    return 1.0 - ratio(traced.ops / traced.wall_s, untraced.ops / untraced.wall_s)


def tail_metrics(repeat: Repeat) -> Dict[str, float]:
    """The far tail of one untraced repeat, as the caller saw it
    (informational: too few samples, too much neighbour, to bound)."""
    return {
        "client.req_p99_ms": percentile(repeat.latencies_s, 0.99)[0] * 1e3,
        "client.req_p999_ms": percentile(repeat.latencies_s, 0.999)[0] * 1e3,
        "client.req_max_ms": max(repeat.latencies_s) * 1e3,
    }


# -- process accounting ---------------------------------------------------------

def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """user + sys CPU seconds of ``pid`` (all threads) from /proc."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    """High-water RSS of ``pid`` from /proc."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except FileNotFoundError:
                pass  # a merge retired the file between listing and stat
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
