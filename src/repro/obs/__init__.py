"""Observability: the process-wide metrics registry and the operator CLI.

``repro.obs`` is deliberately dependency-free (stdlib only) and safe to
import from any layer — the engine, the serving stack, the benchmarks,
and the CLI all meter through the same registry types.

* :mod:`repro.obs.registry` — counters, gauges, log-bucketed latency
  histograms, Prometheus-style text exposition, and an exposition
  parser (used by ``repro query latency`` and the round-trip tests).
* :mod:`repro.obs.query` — the ``repro query`` click subcommand group
  and the table/csv/json rendering every ``repro`` verb shares (click
  is the CLI's one dependency; nothing else in ``repro.obs`` needs it).
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    parse_exposition,
)

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "parse_exposition",
]
