"""Benchmark harness: regenerates every table and figure of Section 8.

:mod:`repro.bench.harness` builds engines and runs workload phases;
:mod:`repro.bench.experiments` contains the drivers, each a sweep over a
few shared cells, and the registry ``repro experiment`` and
``benchmarks/bench_figures.py`` both run, in which every paper figure
or table is a selection and a projection of one driver's rows (figs
9-13, Table 1 and the index share share one chain sweep, figs 14-15 one
provenance sweep, figs 17-18 one served sweep);
:mod:`repro.bench.claims` holds what each experiment must show;
:mod:`repro.bench.report` prints the paper-style series.  README.md's
"Benchmarks and experiments" table maps every experiment to its driver.
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
