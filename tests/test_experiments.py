"""Every registered experiment runs at smoke scale with its output pinned.

Three contracts of ``repro.bench.experiments``:

* each driver's row schema (keys and their order) and the columns that
  are deterministic functions of the seeded streams — the golden values
  were recorded at the commit *before* the drivers became sweeps over
  shared cells, so "same output" is checked, not assumed — plus one
  timed ratio, the MULTI_GET batch speedup, far enough from its floor
  not to flake;
* the parameter surface: every ``run_*`` parameter is set by some caller
  in ``benchmarks/``, ``tests/``, ``examples/`` or the CLI, and no
  caller passes a keyword its driver does not accept;
* README's experiment table lists exactly the registered names.
"""

import ast
import inspect
import re
from functools import partial
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.bench.experiments import (
    run_compaction_policies,
    run_durability,
    run_multi_get,
    run_negative_lookup,
    run_scan_throughput,
    run_scan_vs_hotset,
    run_service_throughput,
    run_sharding_scalability,
)
from repro.cli import _EXPERIMENTS, _SWEEP_FLAGS

ROOT = Path(__file__).resolve().parent.parent
DRIVERS = {
    name: function
    for name, function in vars(experiments).items()
    if name.startswith("run_") and getattr(function, "__module__", "") == experiments.__name__
}

#: The smoke scale of the served and beyond-the-paper figures.  Partials
#: of the drivers by name, so the parameter-surface check below counts
#: the keywords they set.
SMOKE = {
    "fig16": partial(
        run_sharding_scalability, shard_counts=(1, 2), blocks=40, repeats=1),
    "fig17": partial(
        run_service_throughput, client_counts=(1, 8), ops_per_client=100, num_keys=512),
    "fig18": partial(
        run_durability, policies=("off", "batch"), clients=8, ops_per_client=100,
        num_keys=512),
    # The driver verifies every configuration against a brute-force
    # model (latest and at_blk) before timing anything.
    "fig20": partial(
        run_scan_throughput, shard_counts=(1,), scan_lengths=(8, 64),
        num_addresses=1024, blocks=48, puts_per_block=128, scans_per_point=120),
    "fig22": partial(
        run_compaction_policies, size_ratios=(4,), blocks=60, puts_per_block=16,
        reads=40),
    "multi-get": partial(
        run_multi_get, batch_sizes=(1, 16), clients=4, ops_per_client=60,
        num_keys=1024, blocks=16),
    "negative-lookup": partial(
        run_negative_lookup, absent_keys=48, passes=20, num_keys=512),
    "scan-hotset": partial(run_scan_vs_hotset, num_keys=512, blocks=24),
}
SMALL_CHAIN = dict(heights=(150,), engines=("mpt", "cole"), num_accounts=20)

#: name -> (kwargs, row keys in order, pinned columns, golden tuples of
#: the pinned columns, one per row whose engine — if the rows have one —
#: is the synchronous ``mpt`` or ``cole``).
IN_PROCESS = {
    "fig9": (
        SMALL_CHAIN,
        ("engine", "blocks", "storage_bytes", "tps", "note"),
        ("engine", "storage_bytes"),
        [("mpt", 1462849), ("cole", 297672)],
    ),
    "fig10": (
        SMALL_CHAIN,
        ("engine", "blocks", "storage_bytes", "tps", "note"),
        ("engine", "storage_bytes"),
        [("mpt", 685879), ("cole", 91205)],
    ),
    "fig11": (
        dict(heights=(5,), engines=("cole",), num_keys=20),
        ("engine", "blocks", "mix", "tps"),
        ("mix",),
        [("RO",), ("RW",), ("WO",)],
    ),
    "fig12": (
        dict(heights=(5,), engines=("cole",), num_accounts=10),
        ("engine", "blocks", "median_s", "p99_s", "tail_s"),
        ("blocks",),
        [(5,)],
    ),
    "fig13": (
        dict(size_ratios=(2,), blocks=5, num_accounts=10),
        ("engine", "size_ratio", "tps", "median_s", "tail_s"),
        ("size_ratio",),
        [(2,)],
    ),
    "fig14": (
        dict(query_ranges=(2, 8), blocks=20, engines=("mpt", "cole"), queries_per_point=3),
        ("engine", "range", "cpu_s", "proof_bytes"),
        ("engine", "range", "proof_bytes"),
        [
            ("mpt", 2, 1761.3333333333333),
            ("mpt", 8, 7045.333333333333),
            ("cole", 2, 1498.6666666666667),
            ("cole", 8, 1536.0),
        ],
    ),
    "fig15": (
        dict(fanouts=(2, 8), blocks=20, query_range=4, queries_per_point=3),
        ("engine", "fanout", "cpu_s", "proof_bytes"),
        ("fanout", "proof_bytes"),
        [(2, 1400.0), (8, 1688.0)],
    ),
    "fig16": (
        SMOKE["fig16"].keywords,
        ("shards", "puts", "elapsed_s", "puts_per_s", "storage_bytes", "hstate"),
        ("shards", "puts", "storage_bytes", "hstate"),
        [(1, 20480, 3193239, "d5ec3c9045143117"), (2, 20480, 3659613, "4855751232659f20")],
    ),
    "fig17": (
        SMOKE["fig17"].keywords,
        ("clients", "ops", "errors", "ops_per_s", "p50_s", "p99_s",
         "cache_hit_rate", "avg_batch", "commits", "event_loop"),
        ("clients", "ops", "errors"),
        [(1, 100, 0), (8, 800, 0)],
    ),
    "fig18": (
        SMOKE["fig18"].keywords,
        ("policy", "ops", "errors", "ops_per_s", "p50_s", "p99_s",
         "wal_syncs", "wal_mb", "syncs_per_put"),
        ("policy", "ops", "errors"),
        [("off", 800, 0), ("batch", 800, 0)],
    ),
    "fig20": (
        SMOKE["fig20"].keywords,
        ("shards", "scan_len", "scans", "entries", "scans_per_s",
         "entries_per_s", "merged_scans_per_s"),
        ("shards", "scan_len", "scans", "entries"),
        [(1, 8, 120, 566), (1, 64, 120, 4082)],
    ),
    "fig22": (
        SMOKE["fig22"].keywords,
        ("policy", "size_ratio", "bytes_flushed", "bytes_rewritten", "write_amp",
         "disk_runs", "puts_per_s", "get_p50_us", "get_p99_us",
         "content_mismatches", "root"),
        ("policy", "bytes_flushed", "bytes_rewritten", "disk_runs",
         "content_mismatches", "root"),
        [
            ("leveling", 877899, 152090, 20, 0, "170cefc080d26a82"),
            ("tiering", 877899, 65905, 29, 0, "80c19c0991338c1c"),
        ],
    ),
    "table1": (
        dict(heights=(150,), num_accounts=20),
        ("engine", "blocks", "storage_bytes", "write_io_per_tx",
         "get_io_per_query", "tail_s", "median_s"),
        ("engine", "storage_bytes", "write_io_per_tx", "get_io_per_query"),
        # cole: 402 IOs / 1500 txs.  It was 552 (0.368) while each of the 148
        # floor searches read its final value page twice and 2 of them
        # re-read the page they had just stepped left from.
        [("mpt", 1462849, 1.4066666666666667, 1.82),
         ("cole", 297672, 402 / 1500, 0.0)],
    ),
    "index-share": (
        dict(blocks=10, num_accounts=10),
        ("value_bytes", "node_bytes", "data_share"),
        ("value_bytes", "node_bytes"),
        [(6480, 77694)],
    ),
    "multi-get": (
        SMOKE["multi-get"].keywords,
        ("batch", "keys", "keys_per_s", "p50_s", "p99_s", "speedup"),
        ("batch", "keys"),
        [(1, 240), (16, 3840)],
    ),
    "negative-lookup": (
        SMOKE["negative-lookup"].keywords,
        ("config", "speedup", "ops", "ops_per_s", "hit_rate"),
        ("config", "ops", "hit_rate"),
        # Cached: the warm-up pass misses each of the 48 addresses once,
        # then all 20 x 48 timed GETs hit.
        [("no-cache", 960, 0.0), ("negative-cache", 960, 20 / 21)],
    ),
    "scan-hotset": (
        SMOKE["scan-hotset"].keywords,
        ("cache_pages", "hot_keys", "scanned", "hit_rate_before",
         "hit_rate_after", "hit_ratio"),
        # The full-range scan evicts none of the protected hot pages.
        ("cache_pages", "hot_keys", "scanned", "hit_rate_before",
         "hit_rate_after", "hit_ratio"),
        [(256, 64, 510, 1.0, 1.0, 1.0)],
    ),
}

#: The subprocess clusters: schema plus the correctness column each
#: driver exists to establish.
SUBPROCESS = {
    "fig19": (
        dict(replica_counts=(1,), readers_per_node=2, reads_per_reader=20,
             num_keys=32, load_waves=2),
        ("replicas", "nodes", "reads", "agg_reads_per_s", "reads_per_s_per_node",
         "roots_checked", "max_lag_blocks"),
        lambda row: row["roots_checked"] > 0,
    ),
    "fig21": (
        dict(node_counts=(2,), writers_per_node=2, writes_per_writer=20,
             num_keys=64, load_waves=2),
        ("nodes", "shards", "writes", "agg_writes_per_s", "writes_per_s_per_node",
         "root", "oracle_match"),
        lambda row: row["oracle_match"] is True,
    ),
}


def run_experiment(name: str, kwargs: dict) -> list:
    function_name, registry_kwargs = _EXPERIMENTS[name]
    rows = DRIVERS[function_name](**registry_kwargs, **kwargs)
    return [rows] if isinstance(rows, dict) else rows


def test_every_registered_experiment_is_covered():
    assert set(IN_PROCESS) | set(SUBPROCESS) == set(_EXPERIMENTS)
    assert {function_name for function_name, _ in _EXPERIMENTS.values()} == set(DRIVERS)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_in_process_experiment_schema_and_golden_columns(name):
    kwargs, keys, pinned, golden = IN_PROCESS[name]
    rows = run_experiment(name, kwargs)
    assert rows
    for row in rows:
        assert tuple(row) == keys
    observed = [
        tuple(row[column] for column in pinned)
        for row in rows
        if row.get("engine", "cole") in ("mpt", "cole")
    ]
    assert observed == golden
    if name == "multi-get":
        # The ratio the driver exists to show: batch-16 MULTI_GET
        # amortizes the round trip at least 2x (4.5-5.7x measured).
        assert rows[-1]["speedup"] >= 2.0, rows


@pytest.mark.parametrize("name", SUBPROCESS)
def test_subprocess_experiment_schema_and_oracle(name):
    kwargs, keys, holds = SUBPROCESS[name]
    rows = run_experiment(name, kwargs)
    assert rows
    for row in rows:
        assert tuple(row) == keys
        assert holds(row)


# -- the parameter surface ---------------------------------------------------

def _caller_files() -> list:
    files = sorted((ROOT / "benchmarks").glob("*.py"))
    files += sorted((ROOT / "tests").rglob("*.py"))
    files += sorted((ROOT / "examples").glob("*.py"))
    return files


def _passed_parameters() -> dict:
    """driver name -> {parameter: [files passing it]}, by static analysis.

    A driver is called either directly or by handing it to a forwarding
    call — ``run_once(benchmark, driver, *args, **kwargs)`` in the figure
    benchmarks, ``partial(driver, **kwargs)`` in ``SMOKE`` — whose
    arguments after the driver are the driver's.  The CLI calls through
    its ``_EXPERIMENTS`` registry and ``_SWEEP_FLAGS`` table.
    """
    passed = {name: {} for name in DRIVERS}

    def record(driver, parameter, where):
        passed[driver].setdefault(parameter, []).append(where)

    for path in _caller_files():
        where = str(path.relative_to(ROOT))
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            positional = list(node.args)
            if isinstance(node.func, ast.Name) and node.func.id in DRIVERS:
                driver = node.func.id
            else:
                named = [
                    index
                    for index, arg in enumerate(positional)
                    if isinstance(arg, ast.Name) and arg.id in DRIVERS
                ]
                if not named:
                    continue
                driver = positional[named[0]].id
                positional = positional[named[0] + 1:]
            parameters = list(inspect.signature(DRIVERS[driver]).parameters)
            assert len(positional) <= len(parameters), (where, driver)
            for index, _ in enumerate(positional):
                record(driver, parameters[index], where)
            for keyword in node.keywords:
                assert keyword.arg is not None, f"{where}: opaque **kwargs to {driver}"
                record(driver, keyword.arg, where)
    for function_name, registry_kwargs in _EXPERIMENTS.values():
        accepted = inspect.signature(DRIVERS[function_name]).parameters
        for parameter in registry_kwargs:
            record(function_name, parameter, "src/repro/cli.py")
        for parameter, _ in _SWEEP_FLAGS.values():
            if parameter in accepted:
                record(function_name, parameter, "src/repro/cli.py")
    return passed


def test_driver_parameter_surface_cannot_regrow():
    passed = _passed_parameters()
    total = 0
    for name, driver in DRIVERS.items():
        accepted = set(inspect.signature(driver).parameters)
        total += len(accepted)
        for parameter, files in passed[name].items():
            assert parameter in accepted, (
                f"{files} pass {parameter}= to {name}, which does not accept it"
            )
        unset = accepted - set(passed[name])
        assert not unset, (
            f"{name}: no caller sets {sorted(unset)}; make them module constants"
        )
    # 121 before the drivers became sweeps over shared cells.
    assert total <= 69


# -- documentation -----------------------------------------------------------

def test_readme_experiment_table_matches_registry():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Benchmarks and experiments", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|[^|]*\| `(run_\w+)` \|", section, re.MULTILINE)
    assert {name: driver for name, driver in rows} == {
        name: function_name for name, (function_name, _) in _EXPERIMENTS.items()
    }
