"""The paired table of ``ci/ab.py`` on canned ``run.py --out`` records
(no git, no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parent.parent / "ci" / "ab.py"

METRICS = [
    {"name": "ops_per_s", "unit": "keys/s", "better": "higher"},
    {"name": "req_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "read_pages_per_op", "unit": "pages", "better": "lower"},
    {"name": "failed_frac", "unit": "ratio", "better": "lower"},
]


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab_under_test", AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(ops, p50, failed=0.0):
    """One run's record, shaped as ``run.py --out`` writes it."""
    return {
        "meta": {"seed": 1},
        "workloads": {
            "ingest": {
                "end_to_end": {
                    "ops_per_s": {"value": ops, "unit": "keys/s"},
                    "req_p50_ms": {"value": p50, "unit": "ms", "samples": 320},
                },
                "extra": {"failed_frac": {"value": failed, "unit": "ratio"}},
                "attempted": 100,
                "failed": 0,
            }
        },
    }


def test_paired_table_ratios_spread_and_sign_count():
    ab = _load_ab()
    parent = [record(100, 0.40), record(110, 0.44), record(90, 0.38), record(100, 0.40)]
    change = [record(120, 0.26), record(121, 0.22), record(81, 0.38), record(130, 0.30)]
    rows = {row["metric"]: row for row in ab.paired_table(METRICS, "ingest", parent, change)}
    # read_pages_per_op was measured by neither side: no row.
    assert set(rows) == {"ops_per_s", "req_p50_ms", "failed_frac"}

    p50 = rows["req_p50_ms"]
    assert p50["ratios"] == pytest.approx([0.65, 0.5, 1.0, 0.75])
    assert p50["ratio_median"] == pytest.approx(0.7)
    assert (p50["wins"], p50["losses"], p50["pairs"]) == (3, 0, 4)  # the tie counts for neither

    ops = rows["ops_per_s"]  # higher is better: a drop is a loss
    assert ops["ratios"] == pytest.approx([1.2, 1.1, 0.9, 1.3])
    assert (ops["wins"], ops["losses"]) == (3, 1)
    assert ops["a"] == pytest.approx((92.5, 100.0, 107.5))  # parent q1, median, q3

    zero = rows["failed_frac"]  # 0 on both sides is a ratio of 1, not a division error
    assert zero["ratios"] == [1.0] * 4 and (zero["wins"], zero["losses"]) == (0, 0)

    lines = ab.format_table(list(rows.values()))
    assert len(lines) == 4
    p50_line = next(line for line in lines if line.startswith("req_p50_ms"))
    assert "0.700" in p50_line and "0.500-1.000" in p50_line and "3 / 0 of 4" in p50_line


def test_pairs_follow_record_order():
    # Pair i is the i-th run of each side: the same seed, run back to back.
    ab = _load_ab()
    rows = ab.paired_table(
        METRICS[:1], "ingest", [record(100, 1), record(200, 1)], [record(200, 1), record(100, 1)]
    )
    assert rows[0]["ratios"] == [2.0, 0.5]
    assert rows[0]["ratio_median"] == pytest.approx(1.25)


def test_gain_rule_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parent_spread():
    ab = _load_ab()
    parent_p50 = [0.40 + 0.01 * (n % 3) for n in range(10)]
    parent = [record(100 + n % 3, parent_p50[n]) for n in range(10)]
    # ops_per_s: better in all ten pairs, median 120 against 101 with a
    # parent q3 - q1 of 2 -> holds.  req_p50_ms: a median far better, but
    # better in only 8 pairs (two ties) -> fails.
    change = [record(120, 0.20 if n < 8 else parent_p50[n]) for n in range(10)]
    rows = {row["metric"]: row for row in ab.paired_table(METRICS, "ingest", parent, change)}
    assert ab.gain_holds(rows["ops_per_s"])
    assert (rows["req_p50_ms"]["wins"], rows["req_p50_ms"]["losses"]) == (8, 0)
    assert not ab.gain_holds(rows["req_p50_ms"])
    # All ten pairs better by a hair, inside the parent's spread -> fails.
    close = [record(101 + n % 3, 0.40) for n in range(10)]
    ops = ab.paired_table(METRICS[:1], "ingest", parent, close)[0]
    assert ops["wins"] == 10 and not ab.gain_holds(ops)

    lines = ab.gain_lines([rows["ops_per_s"], rows["req_p50_ms"]])
    assert lines[0].startswith("gain rule holds for ops_per_s: better in 10 of 10")
    assert lines[1].startswith("gain rule fails for req_p50_ms: better in 8 of 10")
    # Gaps are signed so that a gain is positive in either direction.
    assert "median gap +19 " in lines[0]
    assert ab.median_gap(rows["req_p50_ms"]) > 0
