"""Every registered experiment runs at smoke scale with its output pinned.

Three contracts of ``repro.bench.experiments``:

* each driver's row schema (keys and their order) and the columns that
  are deterministic functions of the seeded streams — the golden values
  were recorded at the commit *before* the drivers became sweeps over
  shared cells, so "same output" is checked, not assumed;
* the parameter surface: every ``run_*`` parameter is set by some caller
  in ``benchmarks/``, ``tests/``, ``examples/`` or the CLI, and no
  caller passes a keyword its driver does not accept;
* README's experiment table lists exactly the registered names.
"""

import ast
import importlib.util
import inspect
import re
from functools import partial
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.cli import _EXPERIMENTS, _SWEEP_FLAGS

ROOT = Path(__file__).resolve().parent.parent
DRIVERS = {
    name: function
    for name, function in vars(experiments).items()
    if name.startswith("run_") and getattr(function, "__module__", "") == experiments.__name__
}


def _smoke_sections() -> dict:
    """``benchmarks/smoke_bench.py``'s section table: the smoke scale."""
    spec = importlib.util.spec_from_file_location(
        "smoke_bench", ROOT / "benchmarks" / "smoke_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sections = {
        name: collect.keywords
        for name, collect in module.SECTIONS
        if isinstance(collect, partial)
    }
    sections["compaction"] = module.compaction_cells.keywords
    return sections


SMOKE = _smoke_sections()
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
        SMOKE["sharding"],
        ("shards", "puts", "elapsed_s", "puts_per_s", "storage_bytes", "hstate"),
        ("shards", "puts", "storage_bytes", "hstate"),
        [(1, 20480, 3193239, "d5ec3c9045143117"), (2, 20480, 3659613, "4855751232659f20")],
    ),
    "fig17": (
        SMOKE["service"],
        ("clients", "ops", "errors", "ops_per_s", "p50_s", "p99_s",
         "cache_hit_rate", "avg_batch", "commits", "event_loop"),
        ("clients", "ops", "errors"),
        [(1, 100, 0), (8, 800, 0)],
    ),
    "fig18": (
        SMOKE["durability"],
        ("policy", "ops", "errors", "ops_per_s", "p50_s", "p99_s",
         "wal_syncs", "wal_mb", "syncs_per_put"),
        ("policy", "ops", "errors"),
        [("off", 800, 0), ("batch", 800, 0)],
    ),
    "fig20": (
        SMOKE["scan"],
        ("shards", "scan_len", "scans", "entries", "scans_per_s",
         "entries_per_s", "merged_scans_per_s"),
        ("shards", "scan_len", "scans", "entries"),
        [(1, 8, 120, 566), (1, 64, 120, 4082)],
    ),
    "fig22": (
        SMOKE["compaction"],
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
        SMOKE["multi_get"],
        ("batch", "keys", "keys_per_s", "p50_s", "p99_s", "speedup"),
        ("batch", "keys"),
        [(1, 240), (16, 3840)],
    ),
    "negative-lookup": (
        SMOKE["negative_lookup"],
        ("config", "speedup", "ops", "ops_per_s", "hit_rate"),
        ("config", "ops"),
        [("no-cache", 960), ("negative-cache", 960)],
    ),
    "scan-hotset": (
        SMOKE["scan_vs_hotset"],
        ("cache_pages", "hot_keys", "scanned", "hit_rate_before",
         "hit_rate_after", "hit_ratio"),
        ("cache_pages", "hot_keys", "scanned"),
        [(256, 64, 510)],
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
    benchmarks, ``partial(driver, **kwargs)`` in the smoke table — whose
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
