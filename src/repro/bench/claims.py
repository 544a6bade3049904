"""The claims table: what each experiment's rows must show.

A :class:`Claim` turns one experiment's rows into one number and compares
it with a bound ("COLE / MPT storage at the top height < 0.45").  The
paper's shapes and the extensions' acceptance claims are rows of one
table, :data:`CLAIMS`.  ``repro experiment NAME`` prints a verdict per
claim of NAME and exits 1 when one fails; ``benchmarks/bench_figures.py``
requires every claim to hold at the figure scale.

Claims read the rows relative to what was swept (the top height, the
widest range), so a sweep flag moves the point a claim is judged at; a
claim whose point a sweep left out, or whose engine did not finish
there, is ``not measured``.  ``exact`` claims compare seed-determined
numbers (bytes, page IOs, counts); the others compare timings, which
differ between machines.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

Row = Dict[str, Any]
Rows = Sequence[Row]

_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            ">=": operator.ge, ">": operator.gt}


class NotMeasured(Exception):
    """The rows lack a point the claim is judged at."""


class Claim(NamedTuple):
    experiment: str
    statement: str
    measure: Callable[[Rows], float]
    op: str  # a key of _COMPARE
    bound: float
    exact: bool


def _matching(rows: Rows, where: Dict[str, Any]) -> List[Row]:
    return [row for row in rows
            if all(row[column] == value for column, value in where.items())]


def at(rows: Rows, **where: Any) -> Row:
    """The first row whose columns equal ``where``."""
    matches = _matching(rows, where)
    if not matches:
        raise NotMeasured(where)
    return matches[0]


def spread(rows: Rows, column: str, **where: Any) -> Tuple[Any, Any]:
    """Smallest and largest of two or more distinct values of ``column``."""
    values = sorted({row[column] for row in _matching(rows, where)})
    if len(values) < 2:
        raise NotMeasured(column)
    return values[0], values[-1]


def top(rows: Rows, column: str, **where: Any) -> Any:
    """The largest value of ``column`` among the rows matching ``where``."""
    values = [row[column] for row in _matching(rows, where)]
    if not values:
        raise NotMeasured(where)
    return max(values)


def versus(rows: Rows, column: str, key: str, a: Any, b: Any, **where: Any) -> float:
    """``column`` of the ``key == a`` row over that of the ``key == b`` row."""
    numerator = at(rows, **{key: a}, **where)[column]
    denominator = at(rows, **{key: b}, **where)[column]
    if numerator is None or not denominator:
        raise NotMeasured({key: (a, b), column: (numerator, denominator)})
    return numerator / denominator


def growth(rows: Rows, column: str, key: str, **where: Any) -> float:
    """``column`` at the largest ``key`` over ``column`` at the smallest."""
    low, high = spread(rows, key, **where)
    return versus(rows, column, key, high, low, **where)


def slope(rows: Rows, column: str, key: str, **where: Any) -> float:
    """Log-log slope of ``column`` against ``key`` from its smallest to its
    largest value: 1 is linear growth, 0 is none."""
    low, high = spread(rows, key, **where)
    return math.log(growth(rows, column, key, **where)) / math.log(high / low)


def _band(rows: Rows, column: str, **where: Any) -> float:
    low, high = spread(rows, column, **where)
    return high / low


def _tallest(rows: Rows) -> Dict[str, Any]:
    return {"blocks": top(rows, "blocks")}


def _engines_at_top(column: str, a: str = "cole",
                    b: str = "mpt") -> Callable[[Rows], float]:
    """``column`` of engine ``a`` over engine ``b`` at the top height."""
    return lambda r: versus(r, column, "engine", a, b, **_tallest(r))


def _errors(rows: Rows) -> float:
    return sum(row["errors"] for row in rows)


def _roots_per_node(rows: Rows) -> float:
    return min(row["roots_checked"] / row["nodes"] for row in rows)


CLAIMS = (
    # -- figs 9/10: storage and throughput vs height ------------------------
    Claim("fig9", "COLE / MPT storage at the top height",
          _engines_at_top("storage_bytes"), "<", 0.45, True),
    Claim("fig9", "COLE / MPT throughput at the top height",
          _engines_at_top("tps"), ">", 1.0, False),
    Claim("fig10", "COLE / MPT storage at the top height",
          _engines_at_top("storage_bytes"), "<", 0.45, True),
    Claim("fig10", "LIPP / MPT storage at the top height LIPP finishes",
          lambda r: versus(r, "storage_bytes", "engine", "lipp", "mpt", blocks=top(
              [row for row in r if row["storage_bytes"]], "blocks", engine="lipp")),
          ">", 1.0, True),
    # -- fig 11: throughput vs workload mix ---------------------------------
    Claim("fig11", "read-only / write-only throughput, least slowed engine",
          lambda r: min(versus(r, "tps", "mix", "RO", "WO", engine=engine, **_tallest(r))
                        for engine in {row["engine"] for row in r}),
          ">", 1.0, False),
    Claim("fig11", "COLE / MPT throughput in the worst mix at the top height",
          lambda r: min(versus(r, "tps", "engine", "cole", "mpt", mix=mix, **_tallest(r))
                        for mix in ("RO", "RW", "WO")),
          ">", 0.9, False),
    # -- fig 12: latency distribution ---------------------------------------
    Claim("fig12", "COLE* / COLE tail latency at the top height",
          _engines_at_top("tail_s", "cole*", "cole"), "<", 1.0, False),
    Claim("fig12", "COLE tail / median latency at the top height",
          lambda r: at(r, engine="cole", **_tallest(r))["tail_s"]
          / at(r, engine="cole", **_tallest(r))["median_s"],
          ">", 50.0, False),
    # -- fig 13: size ratio T ------------------------------------------------
    Claim("fig13", "COLE fastest / slowest throughput across T",
          lambda r: _band(r, "tps", engine="cole"),
          "<", 4.0, False),
    # -- figs 14/15: provenance ----------------------------------------------
    Claim("fig14", "MPT proof bytes: log-log slope in q (linear = 1)",
          lambda r: slope(r, "proof_bytes", "range", engine="mpt"), ">", 0.7, True),
    Claim("fig14", "COLE proof bytes: log-log slope in q",
          lambda r: slope(r, "proof_bytes", "range", engine="cole"), "<", 0.5, True),
    Claim("fig14", "COLE / MPT proof bytes at the widest range",
          lambda r: versus(r, "proof_bytes", "engine", "cole", "mpt", range=top(r, "range")),
          "<", 1.0, True),
    Claim("fig14", "COLE / MPT provenance CPU at the widest range",
          lambda r: versus(r, "cpu_s", "engine", "cole", "mpt", range=top(r, "range")),
          "<", 1.0, False),
    Claim("fig15", "COLE proof bytes, widest fanout / best of m = 4, 8",
          lambda r: at(r, engine="cole", fanout=top(r, "fanout"))["proof_bytes"]
          / min(at(r, engine="cole", fanout=m)["proof_bytes"] for m in (4, 8)),
          ">", 1.0, True),
    # -- Table 1 and Section 1 -------------------------------------------------
    Claim("table1", "COLE / MPT storage at the top height",
          _engines_at_top("storage_bytes"), "<", 1.0, True),
    Claim("table1", "COLE / MPT write page IOs per transaction at the top height",
          _engines_at_top("write_io_per_tx"), "<", 1.0, True),
    Claim("table1", "COLE* / COLE tail latency at the top height",
          _engines_at_top("tail_s", "cole*", "cole"), "<", 1.0, False),
    Claim("index-share", "value bytes / MPT node bytes (paper: 2.8%)",
          lambda r: at(r)["data_share"], "<", 0.15, True),
    # -- extensions: serving, durability, replication, scans -----------------
    Claim("fig17", "failed requests", _errors, "==", 0, True),
    Claim("fig17", "ops/s, most / fewest clients",
          lambda r: growth(r, "ops_per_s", "clients"), ">", 1.0, False),
    Claim("fig17", "read-cache hit rate at the most clients",
          lambda r: at(r, clients=top(r, "clients"))["cache_hit_rate"], ">", 0.0, False),
    Claim("fig17", "puts per group commit at the most clients",
          lambda r: at(r, clients=top(r, "clients"))["avg_batch"], ">", 1.0, False),
    Claim("fig18", "failed requests", _errors, "==", 0, True),
    Claim("fig18", "fsyncs per acked put, batch policy",
          lambda r: at(r, policy="batch")["syncs_per_put"], "<", 0.5, False),
    Claim("fig18", "batch / off throughput",
          lambda r: versus(r, "ops_per_s", "policy", "batch", "off"), ">=", 0.5, False),
    Claim("fig18", "fsyncs per acked put, always minus batch",
          lambda r: at(r, policy="always")["syncs_per_put"]
          - at(r, policy="batch")["syncs_per_put"],
          ">", 0.0, False),
    Claim("fig19", "root checks per node, fewest", _roots_per_node, ">=", 1.0, True),
    Claim("fig20", "single-engine entries/s, longest / shortest scans",
          lambda r: growth(r, "entries_per_s", "scan_len"), ">", 1.0, False),
    # -- hot-path extensions ---------------------------------------------------
    Claim("multi-get", "keys/s of the largest batch over single GETs",
          lambda r: versus(r, "keys_per_s", "batch", top(r, "batch"), 1), ">=", 2.0, False),
    Claim("negative-lookup", "negative-cache hit rate on repeated misses",
          lambda r: at(r, config="negative-cache")["hit_rate"], ">", 0.9, True),
)


def verdicts(name: str, rows: Rows) -> List[Row]:
    """One row per claim of experiment ``name``: what was measured, the
    bound, and ``holds`` / ``fails`` / ``not measured``."""
    out: List[Row] = []
    for claim in CLAIMS:
        if claim.experiment != name:
            continue
        try:
            value = claim.measure(rows)
        except NotMeasured:
            value = None
        if value is None:  # a point the sweep left out or did not finish
            measured, verdict = "-", "not measured"
        else:
            measured = f"{value:.4g}"
            verdict = "holds" if _COMPARE[claim.op](value, claim.bound) else "fails"
        out.append({"claim": claim.statement, "measured": measured,
                    "bound": f"{claim.op} {claim.bound:g}",
                    "kind": "exact" if claim.exact else "timed", "verdict": verdict})
    return out
