"""Benchmark harness: regenerates every table and figure of Section 8.

:mod:`repro.bench.harness` builds engines and runs workload phases;
:mod:`repro.bench.experiments` contains one driver per paper figure or
table, each a sweep over a few shared cells; :mod:`repro.bench.report`
prints the paper-style series.  The ``benchmarks/`` pytest-benchmark
suite wraps these drivers at reduced scale; README.md's "Benchmarks and
experiments" table maps every experiment to its driver and file.
"""

from repro.bench.harness import (
    EngineSpec,
    ENGINES,
    make_engine,
    run_chain,
    fresh_dir,
)
from repro.bench.report import format_table

__all__ = [
    "EngineSpec",
    "ENGINES",
    "make_engine",
    "run_chain",
    "fresh_dir",
    "format_table",
]
