"""Every registered experiment runs at smoke scale with its output pinned.

Four contracts of ``repro.bench.experiments`` and its claims table:

* each experiment's row schema (keys and their order) and the columns
  that are deterministic functions of the seeded streams — the golden
  values were recorded at the commit *before* the drivers became sweeps
  over shared cells, so "same output" is checked, not assumed — plus one
  timed ratio, the MULTI_GET batch speedup, far enough from its floor
  not to flake;
* its claims (``repro.bench.claims``): every experiment has one, each
  reads only columns its rows have, and every ``exact`` claim the smoke
  scale measures holds there;
* the parameter surface: every driver parameter is set by some caller —
  the registry, a CLI sweep flag, the ``SMOKE`` table, or a direct call
  in ``benchmarks/``, ``tests/`` or ``examples/`` — and no caller passes
  a keyword its driver does not accept;
* README's experiment table lists exactly the registered names.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.bench.claims import CLAIMS, verdicts
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.cli import _SWEEP_FLAGS
from repro.core import Cole

ROOT = Path(__file__).resolve().parent.parent
DRIVERS = {experiment.driver.__name__: experiment.driver for experiment in EXPERIMENTS.values()}

SMALL_CHAIN = dict(heights=(150,), engines=("mpt", "cole"), num_accounts=20)
#: The one smoke scale: per experiment, the overrides of its figure scale.
SMOKE = {
    "fig9": SMALL_CHAIN,
    "fig10": SMALL_CHAIN,
    "fig11": dict(heights=(5,), engines=("cole",), num_accounts=10),
    "fig12": dict(heights=(5,), engines=("cole",), num_accounts=10),
    "fig13": dict(size_ratios=(2,), heights=(5,), num_accounts=10),
    "fig14": dict(query_ranges=(2, 8), blocks=20, engines=("mpt", "cole"),
                  queries_per_point=3),
    "fig15": dict(fanouts=(2, 8), blocks=20, query_ranges=(4,), queries_per_point=3),
    "fig17": dict(client_counts=(1, 8), ops_per_client=100, num_keys=512),
    "fig18": dict(policies=("off", "batch"), client_counts=(8,), ops_per_client=100,
                  num_keys=512, repeats=1),
    "fig19": dict(node_counts=(2,), clients_per_node=2, ops_per_client=20,
                  num_keys=32, load_waves=2),
    # The driver verifies every configuration against a brute-force
    # model (latest and at_blk) before timing anything.
    "fig20": dict(scan_lengths=(8, 64), num_addresses=1024,
                  blocks=48, puts_per_block=128, scans_per_point=120, repeats=1),
    "table1": dict(heights=(150,), num_accounts=20),
    "index-share": dict(heights=(10,), num_accounts=10),
    "multi-get": dict(batch_sizes=(1, 16), clients=4, ops_per_client=60,
                      num_keys=1024, blocks=16),
    "negative-lookup": dict(absent_keys=48, passes=20, num_keys=512),
}

#: name -> (row keys in order, pinned columns, golden tuples of the
#: pinned columns, one per row whose engine — if the rows have one — is
#: the synchronous ``mpt`` or ``cole``).
IN_PROCESS = {
    "fig9": (
        ("engine", "blocks", "storage_bytes", "tps", "note"),
        ("engine", "storage_bytes"),
        [("mpt", 1462849), ("cole", 223958)],
    ),
    "fig10": (
        ("engine", "blocks", "storage_bytes", "tps", "note"),
        ("engine", "storage_bytes"),
        [("mpt", 685879), ("cole", 74835)],
    ),
    "fig11": (
        ("engine", "blocks", "mix", "tps"),
        ("mix",),
        [("RO",), ("RW",), ("WO",)],
    ),
    "fig12": (
        ("engine", "blocks", "median_s", "p99_s", "tail_s"),
        ("blocks",),
        [(5,)],
    ),
    "fig13": (
        ("engine", "size_ratio", "tps", "median_s", "tail_s"),
        ("size_ratio",),
        [(2,)],
    ),
    "fig14": (
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
        ("engine", "fanout", "cpu_s", "proof_bytes"),
        ("fanout", "proof_bytes"),
        [(2, 1400.0), (8, 1688.0)],
    ),
    "fig17": (
        ("clients", "ops", "errors", "ops_per_s", "p50_s", "p99_s",
         "cache_hit_rate", "avg_batch", "commits"),
        ("clients", "ops", "errors"),
        [(1, 100, 0), (8, 800, 0)],
    ),
    "fig18": (
        ("policy", "ops", "errors", "ops_per_s", "p50_s", "p99_s",
         "wal_syncs", "wal_mb", "syncs_per_put"),
        ("policy", "ops", "errors"),
        [("off", 800, 0), ("batch", 800, 0)],
    ),
    "fig20": (
        ("scan_len", "scans", "entries", "scans_per_s", "entries_per_s"),
        ("scan_len", "scans", "entries"),
        [(8, 120, 566), (64, 120, 4082)],
    ),
    "table1": (
        ("engine", "blocks", "storage_bytes", "write_io_per_tx",
         "get_io_per_query", "tail_s", "median_s"),
        ("engine", "storage_bytes", "write_io_per_tx", "get_io_per_query"),
        # cole: 384 IOs / 1500 txs.  It was 552 (0.368) while each of the 148
        # floor searches read its final value page twice and 2 of them
        # re-read the page they had just stepped left from.
        [("mpt", 1462849, 1.4066666666666667, 1.82),
         ("cole", 223958, 384 / 1500, 0.0)],
    ),
    "index-share": (
        ("value_bytes", "node_bytes", "data_share"),
        ("value_bytes", "node_bytes"),
        [(6480, 77694)],
    ),
    "multi-get": (
        ("batch", "keys", "keys_per_s", "p50_s", "p99_s"),
        ("batch", "keys"),
        [(1, 240), (16, 3840)],
    ),
    "negative-lookup": (
        ("config", "speedup", "ops", "ops_per_s", "hit_rate"),
        ("config", "ops", "hit_rate"),
        # Cached: the warm-up pass misses each of the 48 addresses once,
        # then all 20 x 48 timed GETs hit.
        [("no-cache", 960, 0.0), ("negative-cache", 960, 20 / 21)],
    ),
}

#: The process sweep's experiment: its row schema.  Every node's root is
#: checked against the oracle after every wave, and the count of those
#: checks is an exact claim.
SUBPROCESS = {
    "fig19": ("nodes", "ops", "ops_per_s_per_node", "roots_checked", "max_lag_blocks"),
}


def smoke_rows(name: str, keys: tuple) -> list:
    """Experiment ``name``'s smoke rows, checked against the schema and the
    exact claims the smoke scale measures."""
    rows = run_experiment(name, **SMOKE[name])
    assert rows
    for row in rows:
        assert tuple(row) == keys
    checked = verdicts(name, rows)
    assert [v for v in checked if v["kind"] == "exact" and v["verdict"] == "fails"] == []
    return rows


def test_every_registered_experiment_is_covered():
    assert set(IN_PROCESS) | set(SUBPROCESS) == set(SMOKE) == set(EXPERIMENTS)
    defined = {
        name
        for name, function in vars(experiments).items()
        if name.startswith("run_") and name != "run_experiment"
        and getattr(function, "__module__", "") == experiments.__name__
    }
    assert defined == set(DRIVERS)
    assert {claim.experiment for claim in CLAIMS} == set(EXPERIMENTS)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_in_process_experiment_schema_and_golden_columns(name):
    keys, pinned, golden = IN_PROCESS[name]
    rows = smoke_rows(name, keys)
    observed = [
        tuple(row[column] for column in pinned)
        for row in rows
        if row.get("engine", "cole") in ("mpt", "cole")
    ]
    assert observed == golden
    if name == "multi-get":
        # The ratio the driver exists to show: batch-16 MULTI_GET
        # amortizes the round trip at least 2x (4.5-5.7x measured).
        assert rows[-1]["keys_per_s"] >= 2.0 * rows[0]["keys_per_s"], rows


def test_multi_get_speedup_needs_a_single_get_baseline():
    rows = [{"batch": 4, "keys": 400, "keys_per_s": 100.0, "p50_s": 1.0, "p99_s": 1.0},
            {"batch": 16, "keys": 1600, "keys_per_s": 500.0, "p50_s": 1.0, "p99_s": 1.0}]
    assert [v["verdict"] for v in verdicts("multi-get", rows)] == ["not measured"]
    rows.insert(0, {**rows[0], "batch": 1, "keys_per_s": 50.0})
    [checked] = verdicts("multi-get", rows)
    assert (checked["measured"], checked["verdict"]) == ("10", "holds")


@pytest.mark.parametrize("name", SUBPROCESS)
def test_subprocess_experiment_schema_and_oracle(name):
    smoke_rows(name, SUBPROCESS[name])


class LossyOracle(Cole):
    """An oracle that drops the last put of its second block."""

    def put_many(self, items):
        super().put_many(items[:-1] if self.last_blk == 2 else items)


def test_a_node_that_diverges_from_its_oracle_fails_the_sweep(monkeypatch):
    # One node, so the replica set's check is the primary's own.
    monkeypatch.setattr(experiments, "Cole", LossyOracle)
    with pytest.raises(RuntimeError, match=r"^node 127\.0\.0\.1:\d+ after wave 2:"):
        experiments.run_process_sweep(node_counts=(1,), clients_per_node=1,
                                      ops_per_client=1, num_keys=8, load_waves=2)


# -- the parameter surface ---------------------------------------------------

def _caller_files() -> list:
    files = sorted((ROOT / "benchmarks").glob("*.py"))
    files += sorted((ROOT / "tests").rglob("*.py"))
    files += sorted((ROOT / "examples").glob("*.py"))
    return files


def _passed_parameters() -> dict:
    """driver name -> {parameter: [where it is set]}.

    Callers outside the registry are found by static analysis: a direct
    call of a driver, or ``run_experiment("NAME", ...)``, whose keywords
    go to NAME's driver.  The registry, the CLI's ``_SWEEP_FLAGS`` and
    ``SMOKE`` set parameters by table.
    """
    passed = {name: {} for name in DRIVERS}

    def record(driver, parameter, where):
        passed[driver].setdefault(parameter, []).append(where)

    for path in _caller_files():
        where = str(path.relative_to(ROOT))
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            positional = list(node.args)
            if node.func.id in DRIVERS:
                driver = node.func.id
            elif (node.func.id == "run_experiment" and positional
                  and isinstance(positional[0], ast.Constant)):
                driver = EXPERIMENTS[positional.pop(0).value].driver.__name__
                assert not positional, f"{where}: positional driver arguments"
            else:
                continue
            parameters = list(inspect.signature(DRIVERS[driver]).parameters)
            assert len(positional) <= len(parameters), (where, driver)
            for index, _ in enumerate(positional):
                record(driver, parameters[index], where)
            for keyword in node.keywords:
                assert keyword.arg is not None, f"{where}: opaque **kwargs to {driver}"
                record(driver, keyword.arg, where)
    for name, (driver, bound, _) in EXPERIMENTS.items():
        accepted = inspect.signature(driver).parameters
        for parameter in bound:
            record(driver.__name__, parameter, "EXPERIMENTS")
        for parameter in SMOKE[name]:
            record(driver.__name__, parameter, "SMOKE")
        for parameter, _ in _SWEEP_FLAGS.values():
            if parameter in accepted:
                record(driver.__name__, parameter, "src/repro/cli.py")
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
    # 121 before the drivers became sweeps over shared cells, 68 before
    # figs 9-15, 17, 18, Table 1 and the index share shared three sweeps,
    # 51 before fig16 and fig20's shard counts left with the in-process
    # sharded engine, 47 before figs 19 and 21 shared the process sweep,
    # 43 before fig21's cluster topology left.
    assert total <= 42


# -- documentation -----------------------------------------------------------

def test_readme_experiment_table_matches_registry():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Benchmarks and experiments", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|[^|]*\| `(run_\w+)` \|", section, re.MULTILINE)
    assert {name: driver for name, driver in rows} == {
        name: experiment.driver.__name__ for name, experiment in EXPERIMENTS.items()
    }
