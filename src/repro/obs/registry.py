"""A lightweight in-process metrics registry.

Three metric types — :class:`Counter`, :class:`Gauge`, and
:class:`LatencyHistogram` — keyed by ``(name, labels)`` in a
:class:`MetricsRegistry`, exposed two ways:

* ``registry.expose()`` renders Prometheus text exposition (the
  ``Op.METRICS`` payload), parseable by any scraper and by
  :func:`parse_exposition` below.
* histogram ``summary()`` dicts feed the ``latency`` section of the
  server's ``STATS`` response.

Design constraints, in order:

* **cheap on the hot path** — ``observe()`` is one log, one list index,
  and one lock acquisition; callers cache the metric object so the
  registry dict is only touched at setup.
* **safe under executor threads** — every mutation holds a per-metric
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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "parse_exposition",
]

#: Default histogram geometry: quarter-octave buckets from 1us.
DEFAULT_LO = 1e-6
DEFAULT_GROWTH = 2.0 ** 0.25
DEFAULT_BUCKETS = 96


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: float) -> None:
        """Scrape-time mirror of an externally maintained total.

        For counters whose source of truth lives elsewhere (e.g. the
        server's ``op_counts`` dict): the exposition snapshot copies the
        current total here instead of double-counting on the hot path.
        """
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (heights, occupancy, hit rates, lag)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


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


class MetricsRegistry:
    """Named metrics keyed by ``(name, labels)``; get-or-create access.

    ``counter`` / ``gauge`` / ``histogram`` return the live metric
    object — hot paths call once at setup and keep the reference, so
    recording never touches the registry lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    def _get(
        self,
        kind: str,
        name: str,
        help: str,
        labels: dict,
        factory: Callable[[], Any],
    ) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._kinds.get(name)
            if existing is not None and existing != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
                self._kinds[name] = kind
                if help:
                    self._help[name] = help
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get("counter", name, help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get("gauge", name, help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        lo: float = DEFAULT_LO,
        growth: float = DEFAULT_GROWTH,
        buckets: int = DEFAULT_BUCKETS,
        **labels: str,
    ) -> LatencyHistogram:
        return self._get(
            "histogram", name, help, labels,
            lambda: LatencyHistogram(lo=lo, growth=growth, buckets=buckets),
        )

    # -- reading -------------------------------------------------------------

    def histograms(self, name: str) -> List[Tuple[dict, LatencyHistogram]]:
        """All ``(labels, histogram)`` series of one histogram family."""
        with self._lock:
            return [
                (dict(key[1]), metric)
                for key, metric in self._metrics.items()
                if key[0] == name and isinstance(metric, LatencyHistogram)
            ]

    def expose(self) -> str:
        """Prometheus text exposition of every registered metric.

        Histograms emit the non-empty buckets (cumulative, per the
        format) plus the mandatory ``+Inf``, ``_sum``, and ``_count``
        series — sparse but scraper-valid.
        """
        with self._lock:
            items = sorted(self._metrics.items())
            kinds = dict(self._kinds)
            helps = dict(self._help)
        lines: List[str] = []
        seen_header = set()
        for (name, label_items), metric in items:
            if name not in seen_header:
                seen_header.add(name)
                if name in helps:
                    lines.append(f"# HELP {name} {helps[name]}")
                lines.append(f"# TYPE {name} {kinds[name]}")
            labels = _format_labels(label_items)
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{name}{labels} {_format_value(metric.value)}")
                continue
            with metric._lock:
                counts = list(metric._counts)
                count, total = metric._count, metric._sum
            cumulative = 0
            bounds = metric.bounds
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
        return "\n".join(lines) + "\n"


# =============================================================================
# exposition parsing (repro query latency, round-trip tests)
# =============================================================================

def _parse_labels(text: str) -> dict:
    labels: dict = {}
    index = 0
    while index < len(text):
        eq = text.index("=", index)
        key = text[index:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted value for label {key!r}")
        value = []
        j = eq + 2
        while text[j] != '"':
            if text[j] == "\\":
                j += 1
            value.append(text[j])
            j += 1
        labels[key] = "".join(value)
        index = j + 1
    return labels


def parse_exposition(text: str) -> Dict[str, List[Tuple[dict, float]]]:
    """Parse Prometheus text exposition into ``{name: [(labels, value)]}``.

    Inverse of :meth:`MetricsRegistry.expose` (histograms come back as
    their ``_bucket``/``_sum``/``_count`` series).  Raises
    ``ValueError`` on a malformed sample line.
    """
    series: Dict[str, List[Tuple[dict, float]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value_text = rest.rsplit("}", 1)
            try:
                labels = _parse_labels(label_text)
            except (ValueError, IndexError) as exc:
                raise ValueError(f"bad labels in exposition line: {raw!r}") from exc
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad exposition line: {raw!r}")
            name, value_text = parts
            labels = {}
        value_text = value_text.strip()
        value = math.inf if value_text == "+Inf" else float(value_text)
        series.setdefault(name, []).append((labels, value))
    return series


def quantile_from_buckets(
    buckets: List[Tuple[dict, float]], fraction: float
) -> Optional[float]:
    """p-th value from one series' cumulative ``_bucket`` samples.

    ``buckets`` is the ``(labels, cumulative_count)`` list of a single
    histogram series (labels differing only in ``le``).  Returns the
    first bucket bound whose cumulative count reaches the rank, or
    ``None`` for an empty series.
    """
    ordered = sorted(
        (
            (math.inf if b[0]["le"] == "+Inf" else float(b[0]["le"]), b[1])
            for b in buckets
        ),
        key=lambda pair: pair[0],
    )
    if not ordered:
        return None
    total = ordered[-1][1]
    if not total:
        return None
    rank = max(1, math.ceil(fraction * total))
    for bound, cumulative in ordered:
        if cumulative >= rank:
            return bound
    return ordered[-1][0]
