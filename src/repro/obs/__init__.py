"""Observability: the process-wide histogram registry and the operator CLI.

``repro.obs`` is deliberately dependency-free (stdlib only) and safe to
import from any layer — the engine, the serving stack, the benchmarks,
and the CLI all meter through the same registry types.

* :mod:`repro.obs.registry` — log-bucketed latency histograms and
  Prometheus-style text rendering.
* :mod:`repro.obs.query` — the ``repro query`` click subcommand group
  and the table/csv/json rendering every ``repro`` verb shares (click
  is the CLI's one dependency; nothing else in ``repro.obs`` needs it).
"""

from repro.obs.registry import LatencyHistogram, MetricsRegistry, render_rows

__all__ = ["LatencyHistogram", "MetricsRegistry", "render_rows"]
