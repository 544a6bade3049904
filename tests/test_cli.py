"""Tests for the command-line interface."""

import fcntl
import json
import os
import random
from pathlib import Path

import click
import pytest

from repro.cli import main
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole


def build_workspace(directory):
    params = ColeParams(
        system=SystemParams(addr_size=20, value_size=32), mem_capacity=8, size_ratio=2
    )
    cole = Cole(directory, params)
    rng = random.Random(1)
    pool = [rng.randbytes(20) for _ in range(8)]
    for blk in range(1, 20):
        cole.begin_block(blk)
        for _ in range(4):
            cole.put(rng.choice(pool), rng.randbytes(32))
        cole.commit_block()
    cole.close()


def test_info_command(tmp_path, capsys):
    directory = str(tmp_path / "ws")
    build_workspace(directory)
    assert main(["info", directory]) == 0
    out = capsys.readouterr().out
    assert "checkpoint block" in out
    assert "L1_" in out or "L2_" in out


def test_info_on_empty_workspace(tmp_path, capsys):
    directory = str(tmp_path / "empty")
    import os

    os.makedirs(directory)
    assert main(["info", directory]) == 0
    assert "checkpoint block: -1" in capsys.readouterr().out


def test_experiment_command_tiny(tmp_path, capsys):
    assert main(["experiment", "fig9", "--heights", "3", "--engines", "cole"]) == 0
    out = capsys.readouterr().out
    assert "cole" in out
    assert "tps" in out


def parse(*argv):
    """The parameters the click tree parses ``argv`` into (nothing runs)."""
    from repro.cli import cli

    command, args = cli, list(argv)
    while isinstance(command, click.Group):
        command = command.commands[args.pop(0)]
    return command.make_context(command.name, args).params


def test_loadgen_parser_scan_flags():
    params = parse("loadgen", "--scan-frac", "0.4", "--scan-len", "9", "--json")
    assert params["scan_frac"] == 0.4
    assert params["scan_len"] == 9
    assert params["as_json"] is True
    assert parse("loadgen", "--workload", "E")["workload"] == "E"


def test_loadgen_parser_multi_get_flag():
    assert parse("loadgen", "--multi-get-size", "16")["multi_get_size"] == 16
    assert parse("loadgen")["multi_get_size"] == 1
    serve_params = parse("serve", "ws", "--negative-cache-capacity", "0")
    assert serve_params["negative_cache_capacity"] == 0


def test_hot_path_experiments_registered():
    from repro.cli import _EXPERIMENTS

    assert _EXPERIMENTS["multi-get"][0] == "run_multi_get"
    assert _EXPERIMENTS["negative-lookup"][0] == "run_negative_lookup"
    assert _EXPERIMENTS["scan-hotset"][0] == "run_scan_vs_hotset"


def test_fig20_experiment_registered_and_runs_tiny():
    from repro.bench.experiments import run_scan_throughput
    from repro.cli import _EXPERIMENTS

    assert _EXPERIMENTS["fig20"][0] == "run_scan_throughput"
    rows = run_scan_throughput(
        shard_counts=(1, 2),
        scan_lengths=(4,),
        num_addresses=64,
        blocks=6,
        puts_per_block=32,
        scans_per_point=10,
    )
    assert {row["shards"] for row in rows} == {1, 2}
    assert all(row["scans_per_s"] > 0 for row in rows)
    # Both shard counts scanned the identical (verified) data set.
    assert len({row["entries"] for row in rows}) == 1


def test_experiment_rejects_flag_the_driver_has_no_parameter_for(capsys):
    # fig20 has a *local* named ``engines``: the check must read the
    # signature, not ``co_varnames``.
    assert main(["experiment", "fig20", "--engines", "cole"]) == 2
    assert "'fig20' has no --engines; it accepts --shards" in capsys.readouterr().out
    assert main(["experiment", "fig13", "--heights", "5"]) == 2
    assert "'fig13' has no --heights" in capsys.readouterr().out


def test_unknown_experiment(capsys):
    assert main(["experiment", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_index_share_experiment(capsys):
    assert main(["experiment", "index-share"]) == 0
    assert "data_share" in capsys.readouterr().out


def build_durable_workspace(directory):
    """A workspace whose WAL still owes the engine its in-memory tail."""
    import os

    from repro.wal import WriteAheadLog

    params = ColeParams(async_merge=True, mem_capacity=512)
    cole = Cole(directory, params)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    rng = random.Random(3)
    pool = [rng.randbytes(32) for _ in range(12)]
    for blk in range(1, 9):
        cole.begin_block(blk)
        for _ in range(6):
            addr, value = rng.choice(pool), rng.randbytes(40)
            cole.put(addr, value)
            wal.append_put(addr, value, blk)
        wal.append_commit(blk, cole.commit_block())
    root = cole.root_digest()
    wal.close()
    cole.close()
    return root


def test_snapshot_restore_cli_round_trip(tmp_path, capsys):
    workspace = str(tmp_path / "ws")
    live_root = build_durable_workspace(workspace)
    snap = str(tmp_path / "snap")
    assert main(["snapshot", workspace, snap]) == 0
    out = capsys.readouterr().out
    assert live_root.hex() in out
    dest = str(tmp_path / "restored")
    assert main(["restore", snap, dest]) == 0
    out = capsys.readouterr().out
    assert "root digest matches" in out
    assert live_root.hex() in out


def hold_lock(workspace):
    """Hold ``workspace``'s lock the way a live `repro serve` does."""
    holder = open(os.path.join(workspace, "LOCK"), "w")
    fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
    return holder


def test_snapshot_refuses_locked_workspace(tmp_path, capsys):
    """A live `repro serve` holds the workspace lock; snapshotting then
    would race its commits across processes, so the CLI aborts."""
    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    with hold_lock(workspace):
        assert main(["snapshot", workspace, str(tmp_path / "snap")]) == 1
    assert "locked by another process" in capsys.readouterr().err
    # Lock released: the same command now succeeds.
    assert main(["snapshot", workspace, str(tmp_path / "snap")]) == 0


def corrupt_one_file(snap):
    with open(os.path.join(snap, "SNAPSHOT.json")) as handle:
        victim = sorted(json.load(handle)["files"])[0]
    with open(os.path.join(snap, victim), "r+b") as handle:
        handle.seek(2)
        byte = handle.read(1)
        handle.seek(2)
        handle.write(bytes([byte[0] ^ 0x55]))


def test_restore_rejects_corrupted_snapshot(tmp_path, capsys):
    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    snap = str(tmp_path / "snap")
    assert main(["snapshot", workspace, snap]) == 0
    capsys.readouterr()
    # Corrupt one snapshot file; restore must refuse loudly.
    corrupt_one_file(snap)
    assert main(["restore", snap, str(tmp_path / "restored")]) == 1
    assert "Error: IntegrityError: " in capsys.readouterr().err


# =============================================================================
# the surface and the exit-code contract
# =============================================================================

#: The argparse tree's surface, recorded (``opts``, type, default,
#: choices, required, nargs per flag and positional) before the CLI moved
#: onto click, plus the ``query`` group's.
SURFACE = Path(__file__).parent / "fixtures" / "cli_surface.json"

#: Flags the argparse tree had and the click tree dropped.  No caller
#: (tests, CI, examples, benchmarks, docs) ever set one, so each is the
#: constant its default always was.
REMOVED_FLAGS = {
    ("serve", "--cache-capacity"): "ServerConfig.cache_capacity's default, 8192",
    ("serve", "--wal-segment-kb"): "WriteAheadLog's default 4 MiB segments",
    ("loadgen", "--mode"): "closed loop, the only one the generator runs",
    ("loadgen", "--rate"): "read only by an open loop --mode never selected",
    ("cluster migrate", "--timeout"): "migrate_shard_sync's default, 60 s",
}

CLICK_TYPES = {"integer": "int", "float": "float"}


def surface_of(info, path=(), out=None):
    """``{verb path: {flag or positional: attributes}}`` of a click tree,
    in the recorded fixture's shape."""
    out = {} if out is None else out
    params = {}
    for param in info["params"]:
        if param["name"] == "help":
            continue
        flag = param.get("is_flag", False)
        option = param["param_type_name"] == "option"
        entry = {
            "type": "flag" if flag else CLICK_TYPES.get(param["type"]["name"], "str"),
            "default": param["default"],
            "choices": list(param["type"]["choices"]) if "choices" in param["type"] else None,
            "required": param["required"],
            "nargs": 0 if flag else (None if option or param["required"] else "?"),
        }
        if option:
            entry["opts"] = sorted(param["opts"])
        params[max(param["opts"], key=len) if option else param["name"]] = entry
    if path:
        out[" ".join(path)] = params
    for name, child in info.get("commands", {}).items():
        surface_of(child, path + (name,), out)
    return out


def test_click_tree_keeps_the_recorded_surface():
    from repro.cli import cli

    expected = json.loads(SURFACE.read_text())["verbs"]
    for verb, flag in REMOVED_FLAGS:
        del expected[verb][flag]
    assert surface_of(cli.to_info_dict(click.Context(cli))) == expected
    flags = sum(
        "opts" in entry
        for path, verb in expected.items()
        if not path.startswith("query")
        for entry in verb.values()
    )
    assert flags == 62 - len(REMOVED_FLAGS)  # the argparse tree had 62


def locked_snapshot(tmp_path):
    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    return ["snapshot", workspace, str(tmp_path / "snap")], hold_lock(workspace)


def corrupt_restore(tmp_path):
    workspace, snap = str(tmp_path / "ws"), str(tmp_path / "snap")
    build_durable_workspace(workspace)
    assert main(["snapshot", workspace, snap]) == 0
    corrupt_one_file(snap)
    return ["restore", snap, str(tmp_path / "restored")], None


def export_bound(bound):
    def setup(tmp_path):
        workspace = str(tmp_path / "ws")
        build_durable_workspace(workspace)
        out = str(tmp_path / "x.repx")
        return ["export", "-w", workspace, "-o", out, "--low", bound], None

    return setup


def plain(*argv):
    return lambda tmp_path: (list(argv), None)


@pytest.mark.parametrize(
    "setup, code, message",
    [
        (plain("info", "TMP"), 0, ""),
        (plain("restore", "TMP/missing", "TMP/dest"), 1, "Error: "),
        (corrupt_restore, 1, "Error: IntegrityError: "),
        (locked_snapshot, 1, "Error: StorageError: workspace"),
        (export_bound("zz"), 1, "Error: ValueError: "),
        (export_bound("00" * 33), 2, "at most 32 bytes"),
        (plain("nope"), 2, "No such command"),
        (plain("query", "levels"), 2, "exactly one of"),
        (plain("experiment", "fig20", "--engines", "cole"), 2, ""),
    ],
    ids=[
        "info", "restore-missing", "restore-corrupt", "snapshot-locked",
        "export-non-hex", "export-too-long", "unknown-verb", "query-no-target",
        "experiment-flag",
    ],
)
def test_exit_code_contract(tmp_path, capsys, setup, code, message):
    """0 success; 1 an operational failure, one ``Error:`` line on
    stderr and no traceback; 2 a usage error."""
    argv, holder = setup(tmp_path)
    argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
    capsys.readouterr()
    try:
        assert main(argv) == code
    finally:
        if holder is not None:
            holder.close()
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    if code == 1:
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "bound, code",
    [("00ff", 0), ("ab" * 32, 0), ("00" * 33, 2), ("zz", 1)],
    ids=["prefix", "full-width", "too-long", "non-hex"],
)
def test_export_and_audit_share_one_bound_parser(tmp_path, capsys, bound, code):
    """Both verbs pad a hex prefix to the address width (00s for a low
    bound, ffs for a high one) and reject the same inputs the same way."""
    from repro.core import read_header

    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    out = str(tmp_path / "slice.repx")
    export = ["export", "-w", workspace, "-o", out, "--low", bound, "--high", bound]
    assert main(export) == code
    assert main(["query", "-w", workspace, "audit", bound, bound]) == code
    if code == 0:
        with open(out, "rb") as handle:
            header = read_header(handle)
        assert header["addr_low"] == bound + "0" * (64 - len(bound))
        assert header["addr_high"] == bound + "f" * (64 - len(bound))
