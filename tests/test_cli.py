"""Tests for the command-line interface."""

import random

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


def test_loadgen_parser_scan_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["loadgen", "--scan-frac", "0.4", "--scan-len", "9", "--json"]
    )
    assert args.scan_frac == 0.4
    assert args.scan_len == 9
    args = build_parser().parse_args(["loadgen", "--workload", "E"])
    assert args.workload == "E"


def test_loadgen_parser_multi_get_flag():
    from repro.cli import build_parser

    args = build_parser().parse_args(["loadgen", "--multi-get-size", "16"])
    assert args.multi_get_size == 16
    assert build_parser().parse_args(["loadgen"]).multi_get_size == 1
    serve_args = build_parser().parse_args(
        ["serve", "ws", "--negative-cache-capacity", "0"]
    )
    assert serve_args.negative_cache_capacity == 0


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


def test_snapshot_refuses_locked_workspace(tmp_path):
    """A live `repro serve` holds the workspace lock; snapshotting then
    would race its commits across processes, so the CLI aborts."""
    import fcntl
    import os

    import pytest

    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    holder = open(os.path.join(workspace, "LOCK"), "w")
    fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
    try:
        with pytest.raises(SystemExit, match="locked by another process"):
            main(["snapshot", workspace, str(tmp_path / "snap")])
    finally:
        holder.close()
    # Lock released: the same command now succeeds.
    assert main(["snapshot", workspace, str(tmp_path / "snap")]) == 0


def test_restore_rejects_corrupted_snapshot(tmp_path, capsys):
    import os

    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    snap = str(tmp_path / "snap")
    assert main(["snapshot", workspace, snap]) == 0
    capsys.readouterr()
    # Corrupt one snapshot file; restore must refuse loudly.
    import json

    with open(os.path.join(snap, "SNAPSHOT.json")) as handle:
        victim = sorted(json.load(handle)["files"])[0]
    with open(os.path.join(snap, victim), "r+b") as handle:
        handle.seek(2)
        byte = handle.read(1)
        handle.seek(2)
        handle.write(bytes([byte[0] ^ 0x55]))
    import pytest

    from repro.common.errors import IntegrityError

    with pytest.raises(IntegrityError):
        main(["restore", snap, str(tmp_path / "restored")])
