"""Self-test of the performance harness (collected by the tier-1 run).

Checks the ruler, not the program: seeded generators, the percentile
rule, span self-time arithmetic, and that a tiny run of every workload
prints exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workgen  # noqa: E402


# -- generators -----------------------------------------------------------------

def _engine_inputs(seed: int):
    addrs = workgen.make_addrs(workgen.make_rng(seed, "addrs"), 300)
    blocks = workgen.make_blocks(workgen.make_rng(seed, "blocks"), addrs, 12, 100)
    model = workgen.model_of_blocks(blocks)
    ops = workgen.make_query_ops(workgen.make_rng(seed, "ops"), model, 12, 200)
    return blocks, [(op.kind, op.args, op.expected) for op in ops]


def test_generators_are_a_function_of_the_seed():
    assert _engine_inputs(7) == _engine_inputs(7)
    assert _engine_inputs(7) != _engine_inputs(8)
    # Streams are independent: drawing more addresses leaves the blocks'
    # values untouched.
    short = workgen.make_rng(7, "blocks").randbytes(8)
    workgen.make_addrs(workgen.make_rng(7, "addrs"), 1000)
    assert workgen.make_rng(7, "blocks").randbytes(8) == short


def test_blocks_hold_distinct_addresses_and_model_tracks_versions():
    blocks, _ops = _engine_inputs(1)
    assert all(len({addr for addr, _value in items}) == 100 for items in blocks)
    model = workgen.model_of_blocks(blocks)
    addr, value = blocks[-1][0]
    assert model.latest(addr) == value
    assert model.at(addr, 12) == value
    first_height = model.versions[addr][0][0]
    assert model.at(addr, first_height - 1) is None
    assert model.window(addr, 1, 12) == model.versions[addr]
    assert [triple[0] for triple in model.scan(b"\x00" * 32, 5)] == sorted(model.versions)[:5]


def test_zipf_is_skewed_and_in_range():
    sampler = workgen.ZipfSampler(1000)
    rng = workgen.make_rng(1, "zipf")
    draws = [sampler.sample(rng) for _ in range(5000)]
    assert 0 <= min(draws) and max(draws) < 1000
    assert draws.count(0) > draws.count(500) * 20


def test_served_reads_expect_the_connections_own_last_write():
    state = workgen.ServedState(workgen.make_addrs(workgen.make_rng(1, "keys"), 256))
    workgen.make_preload(workgen.make_rng(1, "preload"), state)
    partition = state.keys[0::2]
    ops = workgen.make_mixed_ops(
        workgen.make_rng(1, "ops"), state, partition, workgen.ZipfSampler(len(partition)), 400
    )
    last = {}
    for op in ops:
        if op.kind == "put":
            last[op.payload[0]] = op.payload[1]
        elif op.kind == "multi_put":
            last.update(op.payload)
        elif op.payload in last:
            assert op.expected == last[op.payload]
    assert {op.kind for op in ops} == {"get", "put", "multi_put"}


# -- percentile rule --------------------------------------------------------------

def test_percentile_is_nearest_rank_and_needs_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert measure.percentile(samples, 0.5) == (500, True)
    assert measure.percentile(samples, 0.99) == (990, True)  # exactly 10 beyond
    assert measure.percentile(samples[:999], 0.99) == (990, False)  # 9 beyond
    assert measure.percentile([5.0], 0.99) == (5.0, False)


def test_summarize_reports_the_median_of_the_repeats_as_measured():
    repeats = [
        measure.Repeat(wall_s=1.0, cpu_s=0.5, ops=rate, requests=400,
                       latencies_s=[0.001] * 370 + [tail] * 30)
        for rate, tail in ((100, 0.3), (300, 0.1), (200, 0.2))
    ]
    summary = measure.summarize(repeats)
    assert summary["ops_per_s"]["value"] == 200
    assert summary["cpu_us_per_op"]["value"] == pytest.approx(2500.0)
    assert summary["req_p95_ms"]["repeats"] == pytest.approx([300.0, 100.0, 200.0])
    assert summary["req_p95_ms"]["value"] == pytest.approx(200.0)
    assert summary["req_p95_ms"]["samples"] == 1200
    assert summary["req_p95_ms"]["resolved"] is True  # 20 samples beyond in each repeat
    assert summary["req_p99_ms"]["resolved"] is False  # 4 beyond
    short = [measure.Repeat(1.0, 0.5, 100, 100, [0.001] * 100)]
    assert measure.summarize(short)["req_p95_ms"]["resolved"] is False  # 5 beyond


# -- span arithmetic ----------------------------------------------------------------

def test_self_time_is_duration_minus_child_cover():
    tracer = spans.Tracer()
    inner = spans.traced_call(tracer, lambda: sum(range(2000)), "inner")
    outer = spans.traced_call(tracer, lambda: (inner(), inner()), "outer")
    with tracer.span("request", "demo"):
        outer()
    rows = spans.Aggregates(tracer.aggregates())
    assert rows.count("inner", "demo") == 2  # children inherit the root's kind
    assert rows.self_ns("outer") == rows.total_ns("outer") - rows.total_ns("inner")
    assert rows.self_ns("request") == rows.total_ns("request") - rows.total_ns("outer")
    total_self = sum(rows.self_by_name("demo").values())
    assert total_self == rows.total_ns("request")  # self times add up to the request


def test_generators_are_timed_per_next():
    tracer = spans.Tracer()
    counted = spans.traced_generator(tracer, lambda: iter(range(3)), "gen")
    assert list(counted()) == [0, 1, 2]
    rows = spans.Aggregates(tracer.aggregates())
    assert rows.count("gen") == 4  # three items and the StopIteration
    assert rows.count("gen.started") == 1


def test_executor_hop_keeps_the_parent_across_threads():
    tracer = spans.Tracer()
    pool = ThreadPoolExecutor(max_workers=1)
    threads = []

    class FakeServer:
        def _run(self, fn, *args):
            return asyncio.get_running_loop().run_in_executor(pool, fn, *args)

    def engine_read():
        threads.append(threading.get_ident())
        return 42

    FakeServer._run = spans.traced_executor_run(tracer, FakeServer._run)
    pooled = spans.traced_call(tracer, engine_read, "engine.read")

    async def dispatch(server):
        return await server._run(pooled)

    traced_dispatch = spans.traced_coroutine(
        tracer, dispatch, "dispatch", kind_of=lambda args: "get"
    )
    try:
        assert asyncio.run(traced_dispatch(FakeServer())) == 42
    finally:
        pool.shutdown()
    assert threads != [threading.get_ident()]
    rows = spans.Aggregates(tracer.aggregates())
    assert rows.count("engine.read", "get") == 1  # same request, other thread
    assert rows.count("server.executor_hop", "get") == 1
    assert rows.self_ns("dispatch") == (
        rows.total_ns("dispatch")
        - rows.total_ns("engine.read")
        - rows.total_ns("server.executor_hop")
    )


def test_work_outliving_its_request_is_background():
    tracer = spans.Tracer()

    async def flush():
        await asyncio.sleep(0)

    traced_flush = spans.traced_coroutine(tracer, flush, "flush")

    async def put():
        return asyncio.get_running_loop().create_task(traced_flush())

    traced_put = spans.traced_coroutine(tracer, put, "put", kind_of=lambda args: "put")

    async def main():
        await (await traced_put())

    asyncio.run(main())
    rows = spans.Aggregates(tracer.aggregates())
    assert rows.count("flush", "background") == 1
    assert rows.self_ns("put") == rows.total_ns("put")  # the flush is not its child


def test_install_wraps_and_uninstall_restores():
    from repro.core.storage import Cole
    from repro.core import storage

    before = (Cole.get, storage.merge_entry_streams)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert Cole.get is not before[0]
        assert storage.merge_entry_streams is not before[1]
    finally:
        tracer.uninstall()
    assert (Cole.get, storage.merge_entry_streams) == before


# -- compare ------------------------------------------------------------------------

CONTRACT = {
    "workloads": [{"name": "ingest"}, {"name": "served_mixed"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "keys/s", "better": "higher", "bound": 0.1},
        {"name": "write_bytes_per_user_byte", "unit": "ratio", "better": "lower", "bound": 0.05},
    ],
}


def _record(value: float, repeats=(), *, seed=1, workload="ingest", metric="ops_per_s", **detail):
    detail.update(value=value, repeats=list(repeats))
    section = "end_to_end" if metric in ("ops_per_s", "write_bytes_per_user_byte") else "extra"
    return {
        "meta": {"seed": seed, "seconds": 13, "scale": 1.0, "repeats": 8, "setups": 3},
        "workloads": {workload: {section: {metric: detail}}},
    }


def _verdict(a, b):
    (row,) = compare.compare(CONTRACT, a, b)
    return row["verdict"]


def test_compare_verdicts():
    steady = [_record(100, (99, 100, 101))]
    assert _verdict(steady, [_record(95, (94, 95, 96))]) == "within"
    assert _verdict(steady, [_record(80, (79, 80, 81))]) == "worse"
    assert _verdict(steady, [_record(120, (119, 120, 121))]) == "better"
    assert _verdict(steady, [_record(80, (60, 80, 100))]) == "unresolved"
    # Several runs per side: the spread is theirs, not the repeats'.
    many = [_record(value, (50, value, 150)) for value in (99, 100, 100, 101)]
    assert _verdict(many, many) == "within"
    # A tail with fewer than ten samples beyond it cannot be judged.
    tail = [_record(5.0, (5.0, 5.0), metric="req_p99_ms", resolved=False)]
    assert _verdict(tail, tail) == "unresolved"


def test_compare_wants_exact_counts_on_the_single_threaded_workloads():
    def runs(metric, workload, *values):
        return [_record(value, seed=seed, workload=workload, metric=metric)
                for seed, value in enumerate(values)]

    amp = "write_bytes_per_user_byte"
    assert _verdict(runs(amp, "ingest", 7.9, 7.9), runs(amp, "ingest", 7.9, 7.9)) == "within"
    assert _verdict(runs(amp, "ingest", 7.9, 7.9), runs(amp, "ingest", 7.9, 8.0)) == "worse"
    assert _verdict(runs(amp, "served_mixed", 7.9, 7.9), runs(amp, "served_mixed", 7.9, 8.0)) == "within"
    pages = "read_pages_per_op"
    assert _verdict(runs(pages, "ingest", 2.3, 2.4), runs(pages, "ingest", 2.3, 2.2)) == "better"
    twice = [_record(2.3, metric=pages), _record(2.4, metric=pages)]  # one seed, two counts
    assert _verdict(twice, twice) == "unresolved"


def test_compare_refuses_sides_run_differently(tmp_path, capsys):
    paths = []
    for name, seed in (("a.json", 1), ("b.json", 2)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump({"runs": [_record(100, (99, 100, 101), seed=seed)]}, handle)
    assert compare.main(CONTRACT, paths[0], paths[0]) == 0
    assert compare.main(CONTRACT, paths[0], paths[1]) == 2
    assert "refused" in capsys.readouterr().out


# -- the command ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["ingest", "query", "served_mixed", "served_read"])
def test_tiny_run_prints_exactly_the_declared_metrics(workload, capsys):
    contract = run.load_contract()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        status = run.main(
            ["--workload", workload, "--seed", "3", "--scale", "0.01", "--trace", str(trace)],
            setups=1, repeats=3,
        )
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert status == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {entry["name"]: entry["unit"] for entry in contract[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "served_mixed":
        assert result["metrics"]["wal.acked_lost"]["value"] == 0
        assert result["metrics"]["wal.recovery_s"]["value"] > 0
