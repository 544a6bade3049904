"""Paired A/B runs of the perf ruler between two git refs.

    python ci/ab.py REF_A REF_B --workload ingest --pairs 10 [--seed 1] [--seconds 13]

REF_A is the parent and REF_B the change.  Both refs are checked out as
detached ``git worktree``s under ``.ab/`` at the repository root
(gitignored), and ``benchmarks/perf/run.py --workload W --out`` runs from
each, one process at a time, in the order A B, B A, A B, ... so a drift
of the machine's speed over the session lands on both sides alike; the
two directories swap refs between pairs.  Pair ``i`` runs with seed
``--seed + i`` on both sides.

The ruler's own ``run.py --compare A.json B.json`` then prints its
verdicts (``within`` / ``better`` / ``worse`` / ``unresolved`` per
end-to-end metric, from each side's spread), and this script prints the
paired view the ruler does not: per metric, each side's median and
quartiles, the change/parent ratio of every pair, their median and
min–max, and in how many pairs the change was better (ties count for
neither side).  Under the table, one line per metric says whether the
gain rule holds: the change is better in at least nine tenths of the
pairs, and its median beats the parent's by more than the parent's own
q3 − q1.  The worktrees are removed at the end; the record files
stay in ``.ab/``.  Exit status is ``run.py --compare``'s, or 1 when a
run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join("benchmarks", "perf", "run.py")


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)``; ``q1 == q3 == median`` below four values."""
    if len(values) < 4:
        middle = statistics.median(values)
        return middle, middle, middle
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_value(record: dict, workload: str, metric: str) -> Optional[float]:
    """One metric of one ``run.py --out`` record, end-to-end or extra."""
    entry = record["workloads"].get(workload, {})
    detail = entry.get("end_to_end", {}).get(metric) or entry.get("extra", {}).get(metric)
    return None if detail is None else detail["value"]


def paired_table(
    metrics: Sequence[dict], workload: str, runs_a: Sequence[dict], runs_b: Sequence[dict]
) -> List[Dict[str, object]]:
    """One row per metric (``name`` / ``unit`` / ``better`` entries, as in
    ``BENCHMARK.json``) both sides measured: ``runs_a[i]`` and
    ``runs_b[i]`` are pair ``i`` (same seed)."""
    rows = []
    for entry in metrics:
        name, better = entry["name"], entry["better"]
        pairs = [
            (metric_value(a, workload, name), metric_value(b, workload, name))
            for a, b in zip(runs_a, runs_b)
        ]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            continue
        ratios = [b / a if a else (1.0 if b == a else float("inf")) for a, b in pairs]
        wins = sum((b > a) if better == "higher" else (b < a) for a, b in pairs)
        losses = sum((b < a) if better == "higher" else (b > a) for a, b in pairs)
        rows.append({
            "metric": name,
            "unit": entry["unit"],
            "better": better,
            "a": quartiles([a for a, _b in pairs]),
            "b": quartiles([b for _a, b in pairs]),
            "ratios": ratios,
            "ratio_median": statistics.median(ratios),
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
        })
    return rows


def format_table(rows: Sequence[Dict[str, object]]) -> List[str]:
    lines = [
        f"{'metric':<27}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
        f"{'change/parent':>14}{'min-max':>14}  pairs better / worse"
    ]
    for row in rows:
        a1, a2, a3 = row["a"]
        b1, b2, b3 = row["b"]
        ratios = row["ratios"]
        lines.append(
            f"{row['metric']:<27}"
            f"{f'{a2:.4g} [{a1:.4g}, {a3:.4g}]':>34}"
            f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>34}"
            f"{row['ratio_median']:>14.3f}"
            f"{f'{min(ratios):.3f}-{max(ratios):.3f}':>14}"
            f"  {row['wins']} / {row['losses']} of {row['pairs']} ({row['better']} is better)"
        )
    return lines


def median_gap(row: Dict[str, object]) -> float:
    """The change's median minus the parent's, signed so that a gain is
    positive whichever direction the metric's ``better`` is."""
    a2, b2 = row["a"][1], row["b"][1]
    return b2 - a2 if row["better"] == "higher" else a2 - b2


def gain_holds(row: Dict[str, object]) -> bool:
    """The gain rule for one :func:`paired_table` row: better in at least
    9 of 10 pairs (ties count for neither side) and a :func:`median_gap`
    larger than the parent's q3 - q1."""
    a1, _a2, a3 = row["a"]
    return 10 * row["wins"] >= 9 * row["pairs"] and median_gap(row) > a3 - a1


def gain_lines(rows: Sequence[Dict[str, object]]) -> List[str]:
    """One line per row: whether the gain rule holds, and its two terms."""
    lines = []
    for row in rows:
        a1, _a2, a3 = row["a"]
        lines.append(
            f"gain rule {'holds' if gain_holds(row) else 'fails'} for {row['metric']}: "
            f"better in {row['wins']} of {row['pairs']} pairs (needs 9/10), "
            f"median gap {median_gap(row):+.4g} vs parent q3-q1 {a3 - a1:.4g}"
        )
    return lines


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", ROOT, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref_a", metavar="REF_A", help="the parent")
    parser.add_argument("ref_b", metavar="REF_B", help="the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, help="run.py --seconds (default: its own)")
    args = parser.parse_args(argv)

    base = os.path.join(ROOT, ".ab")
    slots = [os.path.join(base, "slot-0"), os.path.join(base, "slot-1")]
    records = {side: os.path.join(base, f"{side}.json") for side in ("A", "B")}
    os.makedirs(base, exist_ok=True)
    for path in records.values():
        if os.path.exists(path):
            os.remove(path)
    refs = {"A": _git("rev-parse", args.ref_a), "B": _git("rev-parse", args.ref_b)}
    try:
        for slot, ref in zip(slots, (refs["A"], refs["B"])):
            shutil.rmtree(slot, ignore_errors=True)
            _git("worktree", "prune")
            _git("worktree", "add", "--detach", slot, ref)
        for index in range(args.pairs):
            seed = args.seed + index
            # Odd pairs run B first and swap which directory holds which
            # ref, so a bias of one directory (PR 24's A/A null measured
            # 0.984) cancels like a drift over time does.
            order = ("A", "B") if index % 2 == 0 else ("B", "A")
            where = dict(zip(order, slots))
            for side in order:
                _git("-C", where[side], "checkout", "--quiet", "--detach", refs[side])
            for side in order:
                command = [
                    sys.executable, RUN_PY, "--workload", args.workload,
                    "--seed", str(seed), "--out", records[side],
                ]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                print(f"pair {index + 1}/{args.pairs}: {side} ({refs[side][:9]}) in "
                      f"{os.path.basename(where[side])}, seed {seed}", flush=True)
                done = subprocess.run(command, cwd=where[side], capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
                    return 1
    finally:
        for slot in slots:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", slot],
                           capture_output=True)
        _git("worktree", "prune")

    verdicts = subprocess.run(
        [sys.executable, os.path.join(ROOT, RUN_PY), "--compare", records["A"], records["B"]],
        capture_output=True, text=True,
    )
    print(verdicts.stdout, end="")

    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))
    import compare  # the ruler's record reader and its extra metrics

    runs_a, runs_b = compare.load_runs(records["A"]), compare.load_runs(records["B"])
    print(f"\n{args.workload}: {len(runs_b)} pairs, A = {refs['A'][:9]}, B = {refs['B'][:9]}, "
          f"failed A={sum(r['workloads'][args.workload]['failed'] for r in runs_a)} "
          f"B={sum(r['workloads'][args.workload]['failed'] for r in runs_b)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"] + compare.EXTRA
    rows = paired_table(metrics, args.workload, runs_a, runs_b)
    for line in format_table(rows) + [""] + gain_lines(rows):
        print(line)
    return verdicts.returncode


if __name__ == "__main__":
    sys.exit(main())
