"""A lightweight in-process histogram registry and Prometheus text rendering.

:class:`LatencyHistogram` series keyed by ``(name, labels)`` in a
:class:`MetricsRegistry`, read two ways:

* histogram ``summary()`` dicts feed the ``latency`` section of the
  server's ``STATS`` response;
* ``registry.expose()`` renders them as Prometheus text exposition, the
  histogram part of the ``Op.METRICS`` payload.  Counters and gauges are
  not kept here: the server renders them from one STATS snapshot with
  :func:`render_rows`.

Design constraints, in order:

* **cheap on the hot path** — ``observe()`` is one log, one list index,
  and one lock acquisition; callers cache the histogram so the registry
  dict is only touched at setup.
* **safe under executor threads** — every mutation holds a per-histogram
  ``threading.Lock``; the serving stack records from the event loop
  *and* from ``run_in_executor`` workers.
* **mergeable** — histograms with identical bucket geometry add
  bucket-wise, so per-worker histograms can be combined into one report
  (the load generator merges nothing today but the benchmarks may).

Buckets are log-spaced: bucket ``i`` covers ``(lo*growth**(i-1),
lo*growth**i]`` with bucket 0 absorbing everything ``<= lo`` and the
last bucket absorbing the overflow.  The default geometry —
``lo=1us, growth=2**0.25, 96 buckets`` — spans 1us..16.7s at quarter-
octave (~19%) resolution, so a reported p99 is within 19% of the true
sample percentile.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Tuple

__all__ = ["LatencyHistogram", "MetricsRegistry", "render_rows"]

#: Default histogram geometry: quarter-octave buckets from 1us.
DEFAULT_LO = 1e-6
DEFAULT_GROWTH = 2.0 ** 0.25
DEFAULT_BUCKETS = 96


class LatencyHistogram:
    """Fixed log-spaced buckets with O(1) record and p50/p99 extraction.

    Despite the name the value axis is unit-agnostic — the batcher uses
    one with ``lo=1.0`` for batch-*size* distribution.  ``len(h)`` is
    the observation count and an empty histogram is falsy, so it can
    stand in for the raw sample lists the load generator used to keep.
    """

    __slots__ = (
        "_lock", "_lo", "_growth", "_log_growth", "_counts", "_count",
        "_sum", "_min", "_max",
    )

    def __init__(
        self,
        lo: float = DEFAULT_LO,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        if lo <= 0 or growth <= 1.0 or buckets < 1:
            raise ValueError("need lo > 0, growth > 1, buckets >= 1")
        self._lock = threading.Lock()
        self._lo = lo
        self._growth = growth
        self._log_growth = math.log(growth)
        self._counts = [0] * buckets
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    # -- recording -----------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self._lo:
            return 0
        # ceil(log_growth(value / lo)): the bucket whose upper bound is
        # the first >= value; the epsilon keeps exact bounds in their
        # own bucket despite float log error.
        index = int(math.ceil(math.log(value / self._lo) / self._log_growth - 1e-9))
        return min(index, len(self._counts) - 1)

    def observe(self, value: float) -> None:
        """Record one sample (O(1): a log, an index, a lock)."""
        index = self._index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Add ``other``'s buckets into this one (same geometry only)."""
        if (other._lo, other._growth, len(other._counts)) != (
            self._lo, self._growth, len(self._counts)
        ):
            raise ValueError("cannot merge histograms with different buckets")
        with other._lock:
            counts = list(other._counts)
            count, total = other._count, other._sum
            low, high = other._min, other._max
        with self._lock:
            for index, n in enumerate(counts):
                self._counts[index] += n
            self._count += count
            self._sum += total
            self._min = min(self._min, low)
            self._max = max(self._max, high)

    # -- reading -------------------------------------------------------------

    @property
    def bounds(self) -> List[float]:
        """Upper bound of each bucket."""
        return [self._lo * self._growth ** i for i in range(len(self._counts))]

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def percentile(self, fraction: float) -> float:
        """Upper bound of the bucket holding the ``fraction`` rank.

        Clamped to the observed ``[min, max]`` so a single sample
        reports itself exactly; 0.0 when empty.
        """
        with self._lock:
            if not self._count:
                return 0.0
            rank = max(1, math.ceil(fraction * self._count))
            cumulative = 0
            last = len(self._counts) - 1
            for index, n in enumerate(self._counts):
                cumulative += n
                if cumulative >= rank:
                    if index == last:
                        # The overflow bucket spans to +Inf; its only
                        # honest upper bound is the observed max.
                        return self._max
                    bound = self._lo * self._growth ** index
                    return max(self._min, min(bound, self._max))
            return self._max

    def summary(self) -> dict:
        """The STATS-facing digest: count/sum/avg/min/max/p50/p99."""
        with self._lock:
            count, total = self._count, self._sum
        return {
            "count": count,
            "sum": total,
            "avg": total / count if count else 0.0,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.5),
            "p99": self.percentile(0.99),
        }


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(items: Iterable[Tuple[str, str]]) -> str:
    pairs = [
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in items
    ]
    return "{%s}" % ",".join(pairs) if pairs else ""


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def render_rows(rows: Iterable[Tuple[str, str, str, dict, float]]) -> str:
    """Prometheus text of ``(name, kind, help, labels, value)`` rows.

    One ``# HELP`` / ``# TYPE`` pair per name, then its samples; names
    and label sets sorted, label values passed through ``str()``.
    """
    lines: List[str] = []
    last = None
    for name, label_items, kind, help, value in sorted(
        (name, _label_key(labels), kind, help, value)
        for name, kind, help, labels, value in rows
    ):
        if name != last:
            last = name
            lines += [f"# HELP {name} {help}", f"# TYPE {name} {kind}"]
        lines.append(f"{name}{_format_labels(label_items)} {_format_value(value)}")
    return "".join(line + "\n" for line in lines)


class MetricsRegistry:
    """Histogram series keyed by ``(name, labels)``; get-or-create access.

    ``histogram`` returns the live histogram — hot paths call it once at
    setup and keep the reference, so recording never touches the
    registry lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], LatencyHistogram] = {}
        self._help: Dict[str, str] = {}

    def histogram(
        self,
        name: str,
        help: str = "",
        lo: float = DEFAULT_LO,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
        **labels: str,
    ) -> LatencyHistogram:
        key = (name, _label_key(labels))
        with self._lock:
            hist = self._metrics.get(key)
            if hist is None:
                hist = LatencyHistogram(lo=lo, growth=growth, buckets=buckets)
                self._metrics[key] = hist
                if help:
                    self._help[name] = help
            return hist

    # -- reading -------------------------------------------------------------

    def histograms(self, name: str) -> List[Tuple[dict, LatencyHistogram]]:
        """All ``(labels, histogram)`` series of one family."""
        with self._lock:
            return [
                (dict(key[1]), hist)
                for key, hist in self._metrics.items()
                if key[0] == name
            ]

    def expose(self) -> str:
        """Prometheus text exposition of every registered histogram.

        Each emits its non-empty buckets (cumulative, per the format)
        plus the mandatory ``+Inf``, ``_sum``, and ``_count`` series —
        sparse but scraper-valid.
        """
        with self._lock:
            items = sorted(self._metrics.items())
            helps = dict(self._help)
        lines: List[str] = []
        seen_header = set()
        for (name, label_items), hist in items:
            if name not in seen_header:
                seen_header.add(name)
                if name in helps:
                    lines.append(f"# HELP {name} {helps[name]}")
                lines.append(f"# TYPE {name} histogram")
            labels = _format_labels(label_items)
            with hist._lock:
                counts = list(hist._counts)
                count, total = hist._count, hist._sum
            cumulative = 0
            bounds = hist.bounds
            for index, n in enumerate(counts):
                if not n:
                    continue
                cumulative += n
                le = _format_labels(
                    label_items + (("le", _format_value(bounds[index])),)
                )
                lines.append(f"{name}_bucket{le} {cumulative}")
            inf = _format_labels(label_items + (("le", "+Inf"),))
            lines.append(f"{name}_bucket{inf} {count}")
            lines.append(f"{name}_sum{labels} {_format_value(total)}")
            lines.append(f"{name}_count{labels} {count}")
        return "".join(line + "\n" for line in lines)
