"""``run.py --compare A.json B.json``: is B no worse than A?

A record file holds one or more runs (``--out`` appends).  Both sides
must hold the same configurations (seed, seconds, scale, repeats,
set-ups), or the comparison is refused.  One row per (metric, workload):
the end-to-end metrics of ``BENCHMARK.json`` under their bounds, then
:data:`EXTRA`.  Verdicts:

* ``unresolved`` — a side's own spread is wider than the bound, so the
  comparison cannot tell a change from noise (with several runs per side
  the spread is their interquartile range over their median; with one
  run it is (max - min) / median of that run's repeats); or a tail
  percentile had fewer than ten samples beyond it; or a count that must
  be exact differs between two runs of one side with the same seed;
* ``worse`` / ``better`` — B's median is beyond the bound from A's, in
  the metric's bad / good direction.  A count that must be exact (see
  :data:`EXACT_COUNTS`) is compared seed by seed: any difference is
  ``worse`` or ``better``;
* ``within`` — otherwise.

Exit status is 1 when any row is ``worse``, 2 when the comparison is
refused.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: ISSUE 11's end-to-end metrics that ``BENCHMARK.json`` cannot carry
#: (every declared metric is printed by every workload, is never 0 and has
#: a bound of at most 0.25): every untraced run measures them where they
#: are defined, ``--out`` records them, and this module guards them.
EXTRA = [
    {"name": "req_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "read_pages_per_op", "unit": "pages", "better": "lower", "bound": 0.05},
    {"name": "proof_bytes_per_prov", "unit": "bytes", "better": "lower", "bound": 0.0},
]

#: Counts that repeat exactly for a given seed on the single-threaded
#: workloads (all are better lower): any difference is a verdict.
EXACT_COUNTS = {
    "space_bytes_per_user_byte",
    "write_bytes_per_user_byte",
    "read_pages_per_op",
    "proof_bytes_per_prov",
}
EXACT_WORKLOADS = {"ingest", "query"}

CONFIG_KEYS = ("seed", "seconds", "scale", "repeats", "setups")


def load_runs(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return data["runs"]


def configurations(runs: Sequence[dict]) -> List[tuple]:
    return sorted({tuple(run["meta"].get(key) for key in CONFIG_KEYS) for run in runs})


def spread(values: Sequence[float]) -> float:
    """Relative spread of a sample: IQR / median (range / median below 4)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return abs((q3 - q1) / middle)
    return abs((max(values) - min(values)) / middle)


def _details(runs: Sequence[dict], workload: str, metric: str) -> List[Tuple[object, dict]]:
    """(seed, detail) of one metric in every run that measured it."""
    found = []
    for run in runs:
        entry = run["workloads"].get(workload, {})
        detail = entry.get("end_to_end", {}).get(metric) or entry.get("extra", {}).get(metric)
        if detail is not None:
            found.append((run["meta"].get("seed"), detail))
    return found


def side_summary(details: Sequence[Tuple[object, dict]]) -> Tuple[float, float, bool]:
    """(median, spread, resolved) of one metric on one side."""
    values = [detail["value"] for _seed, detail in details]
    resolved = all(detail.get("resolved", True) for _seed, detail in details)
    if len(values) > 1:
        return statistics.median(values), spread(values), resolved
    return values[0], spread(details[0][1].get("repeats", ())), resolved


def verdict(
    median_a: float, median_b: float, noise: float, bound: float, better: str,
    resolved: bool = True,
) -> str:
    if noise > bound or not resolved:
        return "unresolved"
    if median_a == median_b:
        return "within"
    change = (median_b - median_a) / abs(median_a) if median_a else float("inf")
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def _by_seed(details: Sequence[Tuple[object, dict]]) -> Optional[Dict[object, float]]:
    """seed -> the count; ``None`` when one seed gave two different counts."""
    counts: Dict[object, float] = {}
    for seed, detail in details:
        if counts.setdefault(seed, detail["value"]) != detail["value"]:
            return None
    return counts


def exact_verdict(details_a, details_b) -> str:
    counts_a, counts_b = _by_seed(details_a), _by_seed(details_b)
    if counts_a is None or counts_b is None:
        return "unresolved"
    if counts_a == counts_b:
        return "within"
    return "worse" if sum(counts_b.values()) > sum(counts_a.values()) else "better"


def compare(contract: dict, runs_a: Sequence[dict], runs_b: Sequence[dict]) -> List[Dict[str, object]]:
    rows = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        for entry in contract["end_to_end"] + EXTRA:
            details_a = _details(runs_a, workload, entry["name"])
            details_b = _details(runs_b, workload, entry["name"])
            if not details_a or not details_b:
                continue  # not run on both sides, or not defined on this workload
            median_a, spread_a, resolved_a = side_summary(details_a)
            median_b, spread_b, resolved_b = side_summary(details_b)
            exact = entry["name"] in EXACT_COUNTS and workload in EXACT_WORKLOADS
            rows.append({
                "workload": workload,
                "metric": entry["name"],
                "unit": entry["unit"],
                "a": median_a,
                "b": median_b,
                "runs": f"{len(details_a)}/{len(details_b)}",
                "spread": max(spread_a, spread_b),
                "bound": "exact" if exact else f"{entry['bound']:.2f}",
                "verdict": exact_verdict(details_a, details_b) if exact else verdict(
                    median_a, median_b, max(spread_a, spread_b), entry["bound"],
                    entry["better"], resolved_a and resolved_b,
                ),
            })
    return rows


def main(contract: dict, path_a: str, path_b: str) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    if configurations(runs_a) != configurations(runs_b):
        print(f"refused: the two sides were not run with the same {CONFIG_KEYS}:\n"
              f"  {path_a}: {configurations(runs_a)}\n  {path_b}: {configurations(runs_b)}")
        return 2
    rows = compare(contract, runs_a, runs_b)
    print(f"{'workload':<14}{'metric':<28}{'A':>14}{'B':>14} {'unit':<8}"
          f"{'runs':>6}{'spread':>8}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<14}{row['metric']:<28}{row['a']:>14.6g}{row['b']:>14.6g} "
              f"{row['unit']:<8}{row['runs']:>6}{row['spread']:>8.3f}{row['bound']:>7}  "
              f"{row['verdict']}")
    counts = {name: sum(row["verdict"] == name for row in rows)
              for name in ("within", "better", "worse", "unresolved")}
    print("  ".join(f"{name}={count}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0
