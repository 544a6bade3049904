"""Tests for the observability registry: histograms, their Prometheus
exposition, and the rendering of counter / gauge rows.

The histogram is the load-bearing piece — O(1) recording into
log-spaced buckets, merge, and percentile extraction — because every
latency number the server reports flows through it.
"""

import math
import threading

import pytest
from exposition import parse

from repro.obs import LatencyHistogram, MetricsRegistry, render_rows


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


def test_histogram_thread_safety():
    hist = LatencyHistogram()

    def spin():
        for _ in range(10_000):
            hist.observe(0.001)

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert hist.count == 40_000
    assert hist.sum == pytest.approx(40.0)


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
    a = registry.histogram("lat_seconds", op="get")
    b = registry.histogram("lat_seconds", op="get")
    c = registry.histogram("lat_seconds", op="put")
    assert a is b
    assert a is not c
    assert sorted(labels["op"] for labels, _ in registry.histograms("lat_seconds")) == [
        "get", "put"
    ]


def test_exposition_round_trips_through_parser():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_seconds", help="latency", op="get")
    for value in (0.001, 0.002, 0.004, 0.008):
        hist.observe(value)
    rows = render_rows([
        ("reqs_total", "counter", "requests", {"op": "put"}, 1),
        ("reqs_total", "counter", "requests", {"op": "get"}, 3),
        ("height", "gauge", "height", {}, 42),
    ])
    text = rows + registry.expose()
    assert rows.splitlines()[:3] == [
        "# HELP height height", "# TYPE height gauge", "height 42",
    ]
    assert "# HELP reqs_total requests" in text
    assert "# TYPE lat_seconds histogram" in text
    assert text.endswith("\n")

    series = parse(text)
    assert series["reqs_total"] == [({"op": "get"}, 3), ({"op": "put"}, 1)]
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
    series = parse(registry.expose())
    counts = [
        (math.inf if labels["le"] == "+Inf" else float(labels["le"]), value)
        for labels, value in series["h_seconds_bucket"]
    ]
    bounds = [bound for bound, _ in counts]
    values = [value for _, value in counts]
    assert bounds == sorted(bounds)
    assert values == sorted(values)  # cumulative => nondecreasing
    assert values[-1] == 3


def test_exposition_escapes_label_values():
    weird = 'a"b\\c'
    registry = MetricsRegistry()
    registry.histogram("h_seconds", path=weird).observe(0.001)
    text = render_rows([("m", "gauge", "m", {"path": weird, "level": 2}, 1)])
    assert 'm{level="2",path="a\\"b\\\\c"} 1' in text  # str() of the label value
    text += registry.expose()
    assert parse(text)["m"] == [({"level": "2", "path": weird}, 1)]
    assert {labels["path"] for labels, _ in parse(text)["h_seconds_count"]} == {weird}
