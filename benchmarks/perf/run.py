"""The repo's performance benchmark: one command, four workloads.

    python3 benchmarks/perf/run.py --workload ingest --seed 1 --seconds 13 --trace 0
    python3 benchmarks/perf/run.py --workload all --out ledger.json
    python3 benchmarks/perf/run.py --compare A.json B.json

``--trace 0`` prints every end-to-end metric of the workload, measured
with nothing installed; ``--trace 1`` runs one untraced and one traced
repeat and prints every per-layer metric.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Metric names, units and bounds are read from
``BENCHMARK.json`` at the repository root; see README.md here.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

RECORDED_SECONDS = 13  # the run length the *_BASE sizes are written for
REPEATS = 8  # timed repeats of an untraced run; every timing metric is their median
SETUPS = 3  # set-ups of an untraced run; setup_s is their median
SANDBOX_CAVEAT = (
    "sandbox: reads hit the OS page cache and fsync may be cheap; "
    "latencies are this sandbox's, not a device's"
)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported tree: do not let git search above it
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def metadata(args: argparse.Namespace, setups: int, repeats: int) -> dict:
    import served_wl

    loop = asyncio.new_event_loop()
    loop_flavour = type(loop).__name__
    loop.close()
    return {
        "commit": _commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "setups": setups,
        "repeats": repeats,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "event_loop": loop_flavour,
        "wal_sync": served_wl.WAL_SYNC_POLICY,
        "caveat": SANDBOX_CAVEAT,
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, *, scale: float = 1.0,
    setups: int = SETUPS, repeats: int = REPEATS, trace_out: Optional[str] = None,
):
    """Run one workload once; returns its :class:`engine_wl.Outcome`."""
    import engine_wl
    import served_wl

    sizes = engine_wl.Sizes(timed=scale * seconds / RECORDED_SECONDS, setup=scale)
    workdir = os.path.join(HERE, ".work", f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if name == "ingest":
            return engine_wl.run_ingest(workdir, seed, sizes, trace, setups, repeats, trace_out)
        if name == "query":
            return engine_wl.run_query(workdir, seed, sizes, trace, setups, repeats, trace_out)
        return served_wl.run_served(name, workdir, seed, sizes, trace, setups, repeats, trace_out)
    finally:
        gc.unfreeze()  # the workloads freeze their inputs (engine_wl.settle_heap)
        shutil.rmtree(workdir, ignore_errors=True)


def append_run(path: str, record: dict) -> None:
    """Add this run to the record file (``--compare`` reads its runs)."""
    runs = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs + [record]}, handle, indent=1)


def shape_metrics(contract: dict, outcome, trace: bool) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    """(declared, extra): exactly the declared metrics of this trace mode,
    each with its unit, and the untraced run's ``compare.EXTRA`` metrics.

    A per-layer metric whose layer the workload never enters is 0; a name
    neither the contract nor ``compare.EXTRA`` declares, or a missing
    end-to-end one, is a bug.
    """
    import compare

    declared = contract["per_layer" if trace else "end_to_end"]
    produced = dict(outcome.per_layer if trace else outcome.end_to_end)
    extra = {}
    if not trace:
        produced["failed_frac"] = {"value": outcome.failed / outcome.attempted}
        for entry in compare.EXTRA:
            if entry["name"] in produced:
                extra[entry["name"]] = dict(produced.pop(entry["name"]), unit=entry["unit"])
    undeclared = sorted(set(produced) - {entry["name"] for entry in declared})
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    shaped = {}
    for entry in declared:
        name = entry["name"]
        if trace:
            detail = {"value": float(produced.get(name, 0.0))}
        else:
            if name not in produced:
                raise RuntimeError(f"end-to-end metric not measured: {name}")
            detail = dict(produced[name])
        detail["unit"] = entry["unit"]
        shaped[name] = detail
    return shaped, extra


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, detail in metrics.items():
        notes = []
        if "samples" in detail:
            notes.append(f"n={detail['samples']}")
        if detail.get("resolved") is False:
            notes.append("unresolved: fewer than 10 samples beyond")
        if "repeats" in detail:
            notes.append("repeats=" + "/".join(f"{value:.4g}" for value in detail["repeats"]))
        print(f"  {name:<32} {detail['value']:>14.6g} {detail['unit']:<8} {' '.join(notes)}")


def run_one(
    args: argparse.Namespace, contract: dict, name: str, trace: bool, setups: int, repeats: int
) -> dict:
    outcome = run_workload(
        name, args.seed, args.seconds, trace, scale=args.scale, setups=setups,
        repeats=repeats, trace_out=args.trace_out if trace else None,
    )
    metrics, extra = shape_metrics(contract, outcome, trace)
    for line in outcome.notes:
        print(line)
    print_metrics(f"{name} ({'per-layer, traced' if trace else 'end-to-end, untraced'}):", metrics)
    if extra:
        print_metrics(f"{name} (guarded by --compare only, see README):", extra)
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }


def main(
    argv: Optional[List[str]] = None, *, setups: int = SETUPS, repeats: int = REPEATS
) -> int:
    """``setups`` and ``repeats`` are not options of the command: they
    define what a metric means (the median of that many).  Only the
    self-test passes smaller ones."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RECORDED_SECONDS,
                        help="length of the timed phase; op counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrinks set-up and timed op counts alike (self-test, smoke runs)")
    parser.add_argument("--out", help="append this run's full record (per-repeat values) to a JSON file")
    parser.add_argument("--trace-out", help="write the traced run's sampled spans as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.compare:
        import compare

        return compare.main(contract, *args.compare)

    declared = [entry["name"] for entry in contract["workloads"]]
    if args.workload != "all" and args.workload not in declared:
        parser.error(f"unknown workload {args.workload!r}; choose from {declared} or all")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"the program under test is missing: no {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2

    meta = metadata(args, setups, repeats)
    print("perf benchmark: " + " ".join(f"{key}={value}" for key, value in meta.items()))
    record = {"meta": meta, "workloads": {}}
    attempted = failed = 0
    flat: Dict[str, dict] = {}
    if args.workload == "all":
        plan = [(name, trace) for name in declared for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    for name, trace in plan:
        result = run_one(args, contract, name, trace, setups, repeats)
        attempted += result["attempted"]
        failed += result["failed"]
        entry = record["workloads"].setdefault(name, {"attempted": 0, "failed": 0})
        entry["per_layer" if trace else "end_to_end"] = result["metrics"]
        if not trace:
            entry["extra"] = result["extra"]
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        for metric, detail in result["metrics"].items():
            key = metric if args.workload != "all" else f"{name}:{metric}"
            flat[key] = {"value": detail["value"], "unit": detail["unit"]}
    if args.out:
        append_run(args.out, record)
    correct = failed == 0
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": flat}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
