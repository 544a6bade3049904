"""Tests for the benchmark harness and (tiny) experiment drivers."""

import pytest

from repro.bench import ENGINES, fresh_dir, make_engine, run_chain
from repro.bench.harness import cleanup
from repro.bench.report import format_bytes, format_table
from repro.core import Cole
from repro.workloads import SmallBankWorkload


def test_engine_registry_complete():
    assert set(ENGINES) == {"mpt", "cole", "cole*", "lipp", "cmi"}


@pytest.mark.parametrize("name", ["mpt", "cole", "cole*", "lipp", "cmi"])
def test_make_engine(name):
    directory = fresh_dir()
    engine = make_engine(name, directory)
    try:
        engine.begin_block(1)
        engine.put(b"\x01" * 32, b"\x02" * 40)
        engine.commit_block()
        assert engine.get(b"\x01" * 32) == b"\x02" * 40
    finally:
        cleanup(engine, directory)


def test_cole_overrides_apply():
    directory = fresh_dir()
    engine = make_engine("cole*", directory, cole_overrides={"size_ratio": 7})
    try:
        assert isinstance(engine, Cole)
        assert engine.params.size_ratio == 7
        assert engine.params.async_merge
    finally:
        cleanup(engine, directory)


def test_run_chain_phases_share_height():
    directory = fresh_dir()
    engine = make_engine("cole", directory)
    try:
        workload = SmallBankWorkload(num_accounts=10, seed=1)
        setup, _metrics = run_chain(engine, workload.setup_transactions(), 5)
        first_height = setup.height
        _executor, metrics = run_chain(
            engine, workload.transactions(20), 5, executor=setup
        )
        assert setup.height == first_height + 4
        assert metrics.transactions == 20
    finally:
        cleanup(engine, directory)


def test_tiny_overall_experiment():
    from repro.bench.experiments import run_experiment

    rows = run_experiment("fig9", heights=(5,), engines=("cole",), num_accounts=10)
    assert len(rows) == 1
    assert rows[0]["storage_bytes"] >= 0  # tiny runs may stay in L0
    assert rows[0]["tps"] > 0


def test_tiny_latency_experiment():
    from repro.bench.experiments import run_experiment

    rows = run_experiment("fig12", heights=(5,), engines=("cole",), num_accounts=10)
    assert rows[0]["tail_s"] >= rows[0]["median_s"]


def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")


def test_format_helpers():
    assert format_bytes(512) == "512.0B"
    assert format_bytes(2048) == "2.0KB"
