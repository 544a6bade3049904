"""Tests for the observability registry: counters, gauges, histograms,
Prometheus exposition, and the exposition parser.

The histogram is the load-bearing piece — O(1) recording into
log-spaced buckets, merge, and percentile extraction — because every
latency number the server reports flows through it.
"""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.obs import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    parse_exposition,
)
from repro.obs.registry import quantile_from_buckets


# =============================================================================
# counters and gauges
# =============================================================================

def test_counter_inc_and_set():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    # set() overwrites: the scrape-time mirror of an external total.
    counter.set(42)
    assert counter.value == 42


def test_gauge_set_and_inc():
    gauge = Gauge()
    gauge.set(7)
    gauge.inc(-2)
    assert gauge.value == 5


def test_counter_thread_safety():
    counter = Counter()

    def spin():
        for _ in range(10_000):
            counter.inc()

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value == 40_000


# =============================================================================
# latency histogram
# =============================================================================

def test_histogram_empty():
    hist = LatencyHistogram()
    assert hist.count == 0
    assert len(hist) == 0
    assert not hist
    assert hist.percentile(0.5) == 0.0
    assert hist.summary()["count"] == 0


def test_histogram_observe_and_len():
    hist = LatencyHistogram()
    for value in (0.001, 0.002, 0.004):
        hist.observe(value)
    assert hist.count == 3
    assert len(hist) == 3
    assert bool(hist)
    assert hist.min == pytest.approx(0.001)
    assert hist.max == pytest.approx(0.004)
    assert hist.sum == pytest.approx(0.007)


def test_histogram_percentile_within_bucket_resolution():
    """The quarter-octave buckets bound any quantile within ~19% of the
    true value (and exactly at min/max thanks to clamping)."""
    hist = LatencyHistogram()
    values = [0.0001 * (i + 1) for i in range(100)]
    for value in values:
        hist.observe(value)
    p50 = hist.percentile(0.5)
    true_p50 = values[49]
    assert true_p50 * 0.8 <= p50 <= true_p50 * 1.25
    # Extremes stay within [min, max] and within one bucket of min.
    assert hist.min <= hist.percentile(0.0001) <= hist.min * 2 ** 0.25
    assert hist.percentile(1.0) == pytest.approx(hist.max)


def test_histogram_underflow_and_overflow():
    hist = LatencyHistogram()
    hist.observe(0.0)           # below lo: first bucket
    hist.observe(1e-9)
    hist.observe(1e9)           # far past the last bound: last bucket
    assert hist.count == 3
    assert hist.min == 0.0
    assert hist.percentile(0.01) <= 1e-6   # first bucket's bound
    assert hist.percentile(1.0) == pytest.approx(1e9)  # clamped to max


def test_histogram_merge():
    left, right = LatencyHistogram(), LatencyHistogram()
    for value in (0.001, 0.002):
        left.observe(value)
    for value in (0.004, 0.008):
        right.observe(value)
    left.merge(right)
    assert left.count == 4
    assert left.min == pytest.approx(0.001)
    assert left.max == pytest.approx(0.008)
    assert left.sum == pytest.approx(0.015)


def test_histogram_merge_rejects_mismatched_geometry():
    left = LatencyHistogram()
    right = LatencyHistogram(lo=1e-3)
    with pytest.raises(ValueError):
        left.merge(right)


def test_histogram_works_with_shared_percentile_helper():
    """bench.report.percentile must answer from the histogram's own
    buckets — the loadgen report path."""
    from repro.bench.report import percentile

    hist = LatencyHistogram()
    for value in (0.001, 0.002, 0.004):
        hist.observe(value)
    assert percentile(hist, 0.5) == hist.percentile(0.5)
    assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0  # lists still work


# =============================================================================
# registry and exposition
# =============================================================================

def test_registry_returns_same_instrument_per_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("ops_total", op="get")
    b = registry.counter("ops_total", op="get")
    c = registry.counter("ops_total", op="put")
    assert a is b
    assert a is not c


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(ValueError):
        registry.gauge("thing")


def test_exposition_round_trips_through_parser():
    registry = MetricsRegistry()
    registry.counter("reqs_total", help="requests", op="get").inc(3)
    registry.counter("reqs_total", op="put").inc(1)
    registry.gauge("height").set(42)
    hist = registry.histogram("lat_seconds", help="latency", op="get")
    for value in (0.001, 0.002, 0.004, 0.008):
        hist.observe(value)

    text = registry.expose()
    assert "# HELP reqs_total requests" in text
    assert "# TYPE lat_seconds histogram" in text
    assert text.endswith("\n")

    series = parse_exposition(text)
    reqs = dict(
        (labels["op"], value) for labels, value in series["reqs_total"]
    )
    assert reqs == {"get": 3, "put": 1}
    assert series["height"][0][1] == 42
    # Histogram: cumulative buckets end at +Inf == count.
    buckets = series["lat_seconds_bucket"]
    inf_bucket = [v for labels, v in buckets if labels["le"] == "+Inf"]
    assert inf_bucket == [4]
    assert series["lat_seconds_count"][0][1] == 4
    assert series["lat_seconds_sum"][0][1] == pytest.approx(0.015)


def test_exposition_buckets_are_cumulative_and_sorted():
    registry = MetricsRegistry()
    hist = registry.histogram("h_seconds")
    for value in (0.001, 0.002, 0.004):
        hist.observe(value)
    series = parse_exposition(registry.expose())
    counts = [
        (math.inf if labels["le"] == "+Inf" else float(labels["le"]), value)
        for labels, value in series["h_seconds_bucket"]
    ]
    bounds = [bound for bound, _ in counts]
    values = [value for _, value in counts]
    assert bounds == sorted(bounds)
    assert values == sorted(values)  # cumulative => nondecreasing
    assert values[-1] == 3


def test_quantile_from_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("q_seconds")
    for value in (0.001, 0.002, 0.004, 0.008, 0.016):
        hist.observe(value)
    series = parse_exposition(registry.expose())
    buckets = series["q_seconds_bucket"]
    p50 = quantile_from_buckets(buckets, 0.5)
    assert 0.002 <= p50 <= 0.006
    assert quantile_from_buckets([], 0.5) is None


def test_parse_exposition_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_exposition("not a metric line at all !!!\n")


def test_parse_exposition_rejects_unquoted_label_values_under_python_O():
    # The check is a raise, not an assert that ``python -O`` strips:
    # unchecked, ``op=ab"`` parses as ``{"op": "b"}``.
    line = 'm{op=ab"} 1\n'
    with pytest.raises(ValueError):
        parse_exposition(line)
    script = (
        "from repro.obs import parse_exposition\n"
        "try:\n"
        f"    print(parse_exposition({line!r}))\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert run.stdout.strip() == "rejected", run.stdout + run.stderr


def test_parse_exposition_handles_escaped_label_values():
    text = 'weird{path="a\\"b"} 1\n'
    series = parse_exposition(text)
    assert series["weird"][0][0]["path"] == 'a"b'
