"""Shared helpers for the figure-reproduction benchmarks.

Every ``bench_figNN_*.py`` file regenerates one figure/table of the
paper's Section 8 at reduced scale (README.md's "Benchmarks and
experiments" table has the mapping), printing the series the figure
plots.  Run with::

    pytest benchmarks/bench_*.py --benchmark-only

Each experiment driver runs exactly once inside ``benchmark.pedantic``:
the measured quantity is the whole experiment, and the interesting output
is the printed series, not the timer.
"""

from __future__ import annotations

import builtins

import pytest


@pytest.fixture
def series(capfd):
    """A printer that bypasses pytest's output capture.

    The interesting output of these benchmarks is the printed figure
    series; emitting through this fixture lets the command above, piped
    to ``tee bench_output.txt``, record them without needing ``-s``.
    """

    def emit(*args, **kwargs):
        kwargs.setdefault("flush", True)
        with capfd.disabled():
            builtins.print(*args, **kwargs)

    return emit


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)



