"""Plain-text reporting of experiment series (the figures' data).

Shared by the experiment drivers, the figure benchmarks, the CLI, and
the serving layer's load generator, so every surface prints rates,
latencies, and percentile columns the same way.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width ASCII table, one row per series point."""
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def format_bytes(num_bytes: int) -> str:
    """Human-readable byte size."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GB"


def percentile(values, fraction: float) -> float:
    """Value at ``fraction`` (0..1) of the sample; 0.0 when empty.

    The one percentile implementation: ``ExecutionMetrics`` and the load
    generator both report through it, so their numbers agree by
    construction.  Accepts either a raw sequence (sorted per call) or
    anything with its own ``percentile`` method — notably
    :class:`repro.obs.LatencyHistogram`, which answers from its buckets
    without keeping (or re-sorting) the samples.
    """
    own = getattr(values, "percentile", None)
    if own is not None:
        return own(fraction)
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(int(fraction * len(ordered)), len(ordered) - 1)
    return ordered[index]
