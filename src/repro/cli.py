"""Command-line interface: inspect, experiment, serve, snapshot, restore.

Usage (after ``pip install -e .``)::

    python -m repro.cli info /path/to/cole-workspace
    python -m repro.cli experiment fig9 [--heights 30,100] [--engines mpt,cole]
    python -m repro.cli experiment table1
    python -m repro.cli serve /path/to/workspace --port 7407 [--shards 4] [--wal]
    python -m repro.cli serve /path/to/replica --replica-of 127.0.0.1:7407
    python -m repro.cli loadgen --port 7407 --clients 32 --ops 200 [--json]
    python -m repro.cli loadgen --port 7407 --workload E [--scan-len 50]
    python -m repro.cli loadgen --port 7407 --multi-get-size 16
    python -m repro.cli snapshot /path/to/workspace /path/to/snapshot
    python -m repro.cli snapshot /path/to/ws /path/to/inc --incremental-from /path/to/snapshot
    python -m repro.cli snapshot --verify-only /path/to/snapshot
    python -m repro.cli restore /path/to/snapshot /path/to/new-workspace
    python -m repro.cli export -w /path/to/workspace --at-blk 100 -o slice.repx
    python -m repro.cli import slice.repx -w /path/to/new-workspace
    python -m repro.cli cluster init manifest.json --nodes 2 --shards 4
    python -m repro.cli cluster serve /data/node0 --node node-0 -m manifest.json
    python -m repro.cli cluster status -m manifest.json
    python -m repro.cli cluster migrate 0 node-1 -m manifest.json --snapshot-dir /tmp/s0
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.report import format_bytes, format_table
from repro.core.manifest import MANIFEST_NAME, load_manifest

_EXPERIMENTS = {
    "fig9": ("run_overall_performance", {"workload_name": "smallbank"}),
    "fig10": ("run_overall_performance", {"workload_name": "kvstore"}),
    "fig11": ("run_workload_mix", {}),
    "fig12": ("run_latency", {}),
    "fig13": ("run_size_ratio", {}),
    "fig14": ("run_provenance_range", {}),
    "fig15": ("run_mht_fanout", {}),
    "fig16": ("run_sharding_scalability", {}),
    "fig17": ("run_service_throughput", {}),
    "fig18": ("run_durability", {}),
    "fig19": ("run_read_scaling", {}),
    "fig20": ("run_scan_throughput", {}),
    "fig21": ("run_cluster_scaling", {}),
    "fig22": ("run_compaction_policies", {}),
    "table1": ("run_complexity_table", {}),
    "index-share": ("run_index_share", {}),
    "multi-get": ("run_multi_get", {}),
    "negative-lookup": ("run_negative_lookup", {}),
    "scan-hotset": ("run_scan_vs_hotset", {}),
}

#: ``repro experiment`` sweep flag -> (driver parameter, element parser).
_SWEEP_FLAGS = {
    "heights": ("heights", int),
    "engines": ("engines", str),
    "shards": ("shard_counts", int),
    "replicas": ("replica_counts", int),
}

#: Default WAL directory inside a workspace (a sibling of the shard /
#: run files; engine recovery ignores subdirectories).
WAL_DIRNAME = "wal"

def _lock_workspace(workspace: str, purpose: str):
    """Take the workspace's advisory lock; returns the held file handle.

    The flock lives on the inode, so it stays valid for the holder even
    though engine recovery may unlink a stale lock file.  A held lock in
    another process aborts with a clear message instead of letting two
    uncoordinated writers rewrite one manifest.
    """
    import fcntl
    import os

    from repro.core.storage import WORKSPACE_LOCK_NAME

    os.makedirs(workspace, exist_ok=True)
    handle = open(os.path.join(workspace, WORKSPACE_LOCK_NAME), "w")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise SystemExit(
            f"workspace {workspace} is locked by another process "
            f"(a running `repro serve`?); stop it before running {purpose}"
        )
    return handle


def _detect_shards(workspace: str) -> int:
    """Shard count of an existing workspace (1 when single-engine/new).

    Counts ``shard-NN`` subdirectories: the sharded engine creates them
    eagerly on open, so detection works even before the first cascade
    writes a manifest.
    """
    import os

    if not os.path.isdir(workspace):
        return 1
    count = sum(
        1
        for name in os.listdir(workspace)
        if name.startswith("shard-")
        and os.path.isdir(os.path.join(workspace, name))
    )
    return count or 1


def _open_engine(workspace: str, num_shards: int, mem_capacity: int = 512):
    """Open (recovering) the engine serving/snapshotting a workspace."""
    from repro.common.params import ColeParams, ShardParams
    from repro.core import Cole
    from repro.sharding import ShardedCole

    cole_params = ColeParams(async_merge=True, mem_capacity=mem_capacity)
    if num_shards > 1:
        return ShardedCole(
            workspace, ShardParams(cole=cole_params, num_shards=num_shards)
        )
    return Cole(workspace, cole_params)


def cmd_info(args: argparse.Namespace) -> int:
    """Print the manifest and file inventory of a COLE workspace."""
    import os

    shard_dirs = sorted(
        name
        for name in (os.listdir(args.workspace) if os.path.isdir(args.workspace) else [])
        if name.startswith("shard-")
        and os.path.isfile(os.path.join(args.workspace, name, MANIFEST_NAME))
    )
    if shard_dirs and not os.path.isfile(os.path.join(args.workspace, MANIFEST_NAME)):
        print(f"workspace:        {args.workspace} (sharded, {len(shard_dirs)} shards)")
        print("inspect a shard:")
        for name in shard_dirs:
            print(f"  repro info {os.path.join(args.workspace, name)}")
        return 0
    from repro.core.run import RUN_SUFFIXES

    manifest = load_manifest(args.workspace)
    print(f"workspace:        {args.workspace}")
    print(f"checkpoint block: {manifest.checkpoint_blk}")
    print(f"async merge:      {manifest.async_merge}")
    rows = []
    total = 0
    for level, groups in sorted(manifest.levels.items()):
        for role, records in groups.items():
            for record in records:
                size = 0
                for suffix in RUN_SUFFIXES:
                    path = os.path.join(args.workspace, record.name + suffix)
                    if os.path.exists(path):
                        size += os.path.getsize(path)
                total += size
                rows.append(
                    [level, role, record.name, record.num_entries, format_bytes(size)]
                )
    print(format_table(["level", "group", "run", "entries", "size"], rows))
    print(f"total committed run bytes: {format_bytes(total)}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one paper experiment and print its series."""
    import inspect

    from repro.bench import experiments

    name = args.name
    if name not in _EXPERIMENTS:
        print(f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}")
        return 2
    function_name, kwargs = _EXPERIMENTS[name]
    driver = getattr(experiments, function_name)
    accepted = inspect.signature(driver).parameters
    call_kwargs = dict(kwargs)
    for flag, (parameter, parse) in _SWEEP_FLAGS.items():
        value = getattr(args, flag)
        if not value:
            continue
        if parameter not in accepted:
            usable = [f"--{f}" for f, (p, _) in _SWEEP_FLAGS.items() if p in accepted]
            print(
                f"experiment {name!r} has no --{flag}; "
                f"it accepts {', '.join(usable) or 'no sweep flags'}"
            )
            return 2
        call_kwargs[parameter] = tuple(parse(item) for item in value.split(","))
    result = driver(**call_kwargs)
    if isinstance(result, dict):
        for key, value in result.items():
            print(f"{key}: {value}")
        return 0
    if result:
        headers = list(result[0].keys())
        print(format_table(headers, [[row.get(h, "") for h in headers] for row in result]))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a COLE workspace over TCP until interrupted."""
    import asyncio
    import os

    from repro.common.errors import StorageError
    from repro.server import ColeServer, ServerConfig
    from repro.server.protocol import parse_address

    try:
        replica_of = parse_address(args.replica_of) if args.replica_of else None
    except StorageError as exc:
        raise SystemExit(f"--replica-of: {exc}")
    if replica_of is not None and args.wal:
        raise SystemExit(
            "--replica-of and --wal are mutually exclusive: a replica's "
            "recovery source is the primary's stream, not a local WAL"
        )
    if args.bootstrap_from:
        if replica_of is None:
            raise SystemExit("--bootstrap-from only makes sense with --replica-of")
        if not os.path.isdir(args.workspace) or not os.listdir(args.workspace):
            from repro.wal import restore_store

            meta = restore_store(args.bootstrap_from, args.workspace)
            print(
                f"bootstrapped {args.workspace} from snapshot "
                f"{args.bootstrap_from} ({len(meta['files'])} files)",
                flush=True,
            )
    # --shards 0 (the default) re-opens an existing workspace with the
    # shard count it was created with — restarting a 4-shard store
    # without remembering the flag must not serve an empty single-engine
    # view over its shard directories.
    num_shards = args.shards or _detect_shards(args.workspace)
    lock = _lock_workspace(args.workspace, "a second server")
    engine = _open_engine(args.workspace, num_shards, args.mem_capacity)
    wal = None
    if args.wal:
        from repro.wal import WriteAheadLog

        wal = WriteAheadLog(
            args.wal_dir or os.path.join(args.workspace, WAL_DIRNAME),
            num_shards=num_shards,
            sync_policy=args.wal_sync,
            segment_max_bytes=args.wal_segment_kb * 1024,
        )
    elif replica_of is not None:
        # A restored snapshot ships the primary's WAL tail: replay it so
        # the replica subscribes at the snapshot's root, not behind it.
        wal_dir = os.path.join(args.workspace, WAL_DIRNAME)
        if os.path.isdir(wal_dir):
            from repro.wal import WriteAheadLog, replay_wal

            boot_wal = WriteAheadLog(wal_dir, num_shards=num_shards)
            stats = replay_wal(engine, boot_wal)
            boot_wal.close()
            if stats.replayed_anything:
                print(
                    f"replayed {stats.puts_replayed} snapshot-tail writes "
                    f"in {stats.blocks_replayed} blocks",
                    flush=True,
                )
    config = ServerConfig(
        batch_max_puts=args.batch_puts,
        batch_max_delay=args.batch_delay_ms / 1000.0,
        cache_capacity=args.cache_capacity,
        negative_cache_capacity=args.negative_cache_capacity,
    )
    server = ColeServer(
        engine,
        host=args.host,
        port=args.port,
        config=config,
        wal=wal,
        replica_of=replica_of,
    )

    async def serve() -> None:
        host, port = await server.start()
        stats = server.replay_stats
        if stats is not None and stats.replayed_anything:
            print(
                f"recovered {stats.puts_replayed} writes in "
                f"{stats.blocks_replayed} blocks from the WAL "
                f"(heights {stats.first_height}..{stats.last_height})",
                flush=True,
            )
        shards = f", {num_shards} shards" if num_shards > 1 else ""
        durability = f", wal={wal.sync_policy}" if wal is not None else ""
        role = (
            f", replica of {args.replica_of}" if replica_of is not None else ""
        )
        print(
            f"serving {args.workspace} on {host}:{port}{shards}{durability}"
            f"{role} (loop={loop_name}; Ctrl-C stops)",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    from repro.server.eventloop import install_event_loop_policy

    loop_name = install_event_loop_policy()
    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("\nstopped")
    finally:
        if wal is not None:
            wal.close()
        engine.close()
        lock.close()
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Take a consistent point-in-time snapshot of a workspace.

    Offline by design: the workspace lock aborts the copy when another
    process (a live ``repro serve``) holds the store — the commit gate
    only coordinates threads *within* one process.

    ``--incremental-from PREV`` copies only runs new since ``PREV``
    (which may itself be incremental — chains verify and restore hop by
    hop).  ``--verify-only PATH`` checks an existing snapshot chain and
    takes no copy; the positional arguments are not used.
    """
    import os

    from repro.common.errors import IntegrityError, StorageError
    from repro.wal import WriteAheadLog, replay_wal, snapshot_store, verify_snapshot

    if args.verify_only:
        if args.workspace or args.dest:
            raise SystemExit(
                "snapshot --verify-only takes the snapshot path only "
                "(no workspace/dest arguments)"
            )
        try:
            meta = verify_snapshot(args.verify_only)
        except (IntegrityError, StorageError) as exc:
            print(f"snapshot verification FAILED: {exc}")
            return 1
        chain = "incremental" if meta.get("parent") else "full"
        print(f"snapshot:    {args.verify_only} ({chain}) OK")
        print(f"root digest: {meta['root_digest']}")
        print(
            f"files:       {len(meta['files'])} copied, "
            f"{len(meta.get('reused', {}))} reused from the parent chain"
        )
        return 0
    if not args.workspace or not args.dest:
        raise SystemExit("snapshot requires workspace and dest arguments")

    num_shards = args.shards or _detect_shards(args.workspace)
    lock = _lock_workspace(args.workspace, "snapshot")
    engine = _open_engine(args.workspace, num_shards)
    wal = None
    try:
        wal_dir = os.path.join(args.workspace, WAL_DIRNAME)
        if os.path.isdir(wal_dir):
            # Bring the in-memory level back first so the recorded root
            # digest covers every write the WAL still owes the engine.
            wal = WriteAheadLog(wal_dir, num_shards=num_shards)
            replay_wal(engine, wal)
        meta = snapshot_store(
            engine, args.dest, wal=wal, parent=args.incremental_from
        )
    finally:
        if wal is not None:
            wal.close()
        engine.close()
        lock.close()
    print(f"snapshot:    {args.dest}")
    print(f"kind:        {meta['kind']} ({meta['num_shards']} shards)")
    print(f"root digest: {meta['root_digest']}")
    if args.incremental_from:
        copied = sum(attrs["size"] for attrs in meta["files"].values())
        print(
            f"files:       {len(meta['files'])} copied ({format_bytes(copied)}), "
            f"{len(meta['reused'])} reused from {args.incremental_from}"
        )
    else:
        print(f"files:       {len(meta['files'])}")
    return 0


def cmd_restore(args: argparse.Namespace) -> int:
    """Restore a snapshot into a fresh workspace and verify its root."""
    import os

    from repro.wal import WriteAheadLog, replay_wal, restore_store

    meta = restore_store(args.snapshot, args.dest)
    engine = _open_engine(args.dest, meta["num_shards"])
    wal = None
    try:
        wal_dir = os.path.join(args.dest, WAL_DIRNAME)
        if meta.get("has_wal") and os.path.isdir(wal_dir):
            wal = WriteAheadLog(wal_dir, num_shards=meta["num_shards"])
            replay_wal(engine, wal)
        root = engine.root_digest().hex()
    finally:
        if wal is not None:
            wal.close()
        engine.close()
    print(f"restored:    {args.dest} ({len(meta['files'])} files verified)")
    print(f"root digest: {root}")
    if root != meta["root_digest"]:
        print(f"MISMATCH:    snapshot recorded {meta['root_digest']}")
        return 1
    print("root digest matches the snapshot record")
    return 0


def _parse_addr_bound(value: Optional[str], flag: str) -> Optional[bytes]:
    if value is None:
        return None
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise SystemExit(f"{flag} expects a hex-encoded address, got {value!r}")


def cmd_export(args: argparse.Namespace) -> int:
    """Stream a snapshot-consistent keyspace slice into a portable file.

    Rides the engine's paged range-scan cursors: memory stays bounded
    by the page size however large the slice.  The WAL is replayed
    first (like ``repro snapshot``) so the slice sees every durable
    write.
    """
    import os

    from repro.core.export import export_slice
    from repro.wal import WriteAheadLog, replay_wal

    num_shards = args.shards or _detect_shards(args.workspace)
    lock = _lock_workspace(args.workspace, "export")
    engine = _open_engine(args.workspace, num_shards)
    wal = None
    try:
        wal_dir = os.path.join(args.workspace, WAL_DIRNAME)
        if os.path.isdir(wal_dir):
            wal = WriteAheadLog(wal_dir, num_shards=num_shards)
            replay_wal(engine, wal)
        with open(args.output, "wb") as out:
            stats = export_slice(
                engine,
                out,
                at_blk=args.at_blk,
                addr_low=_parse_addr_bound(args.low, "--low"),
                addr_high=_parse_addr_bound(args.high, "--high"),
            )
    finally:
        if wal is not None:
            wal.close()
        engine.close()
        lock.close()
    size = os.path.getsize(args.output)
    print(f"exported:    {args.output} ({format_bytes(size)})")
    print(f"triples:     {stats['triples']} (as of block {stats['at_blk']})")
    print(f"source root: {stats['root']}")
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    """Replay an export stream into a fresh workspace."""
    import os

    from repro.core.export import import_slice

    if os.path.isdir(args.workspace) and os.listdir(args.workspace):
        raise SystemExit(
            f"import destination {args.workspace} is not empty; "
            "imports replay into a fresh workspace"
        )
    lock = _lock_workspace(args.workspace, "import")
    engine = _open_engine(args.workspace, max(1, args.shards))
    try:
        with open(args.file, "rb") as inp:
            stats = import_slice(engine, inp)
        engine.wait_for_merges()
        root = engine.root_digest().hex()
    finally:
        engine.close()
        lock.close()
    print(f"imported:    {stats['triples']} triples over {stats['blocks']} blocks")
    print(f"root digest: {root}")
    print(f"source root: {stats['source_root']}")
    if root == stats["source_root"]:
        print("root digest matches the export header")
    else:
        print(
            "note: roots differ for partial slices or overwrite-heavy "
            "histories (the export carries surviving versions only)"
        )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running server with concurrent YCSB-style clients.

    Exits non-zero when any op errored — a loadgen run against a broken
    server must not report a clean throughput number and exit 0.
    """
    from repro.server import LoadgenParams, format_report, run_loadgen_sync

    kwargs = dict(
        clients=args.clients,
        ops_per_client=args.ops,
        num_keys=args.num_keys,
        scan_length=args.scan_len,
        mode=args.mode,
        rate=args.rate,
        seed=args.seed,
        multi_get_size=args.multi_get_size,
    )
    if args.workload:
        # A YCSB workload letter presets the op mix (E = scan heavy);
        # explicit fractions would contradict it.
        params = LoadgenParams.for_workload(args.workload, **kwargs)
    else:
        params = LoadgenParams(
            read_fraction=args.read_fraction,
            scan_fraction=args.scan_frac,
            **kwargs,
        )
    client_factory = None
    if args.manifest or args.seeds:
        # Cluster target: every worker routes by the manifest through
        # the same connect() factory the single-server path uses.
        from repro.server import connect

        manifest_file = args.manifest
        seeds = tuple(s for s in (args.seeds or "").split(",") if s)
        client_factory = lambda: connect(  # noqa: E731
            manifest_file=manifest_file, seeds=seeds
        )
    report = run_loadgen_sync(args.host, args.port, params, client_factory)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_report(report))
    return 1 if report.errors else 0


def cmd_cluster_init(args: argparse.Namespace) -> int:
    """Write an epoch-0 cluster manifest with round-robin placement."""
    from repro.cluster import plan_manifest

    manifest = plan_manifest(
        args.nodes, args.shards, host=args.host, base_port=args.base_port
    )
    manifest.save(args.manifest)
    print(f"wrote {args.manifest} (epoch 0, {args.shards} shards)")
    for name, control in sorted(manifest.nodes.items()):
        owned = manifest.shards_of_node(name)
        print(f"  {name}: control {control}, shards {list(owned)}")
        print(f"    repro cluster serve <workspace>/{name} --node {name} "
              f"-m {args.manifest}")
    return 0


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    """Serve one cluster node (its shard group + control port)."""
    import asyncio

    from repro.cluster import ClusterManifest, ClusterNode
    from repro.server import ServerConfig

    manifest = ClusterManifest.load(args.manifest)
    lock = _lock_workspace(args.workspace, "a second cluster node")
    config = ServerConfig(
        batch_max_puts=args.batch_puts,
        batch_max_delay=args.batch_delay_ms / 1000.0,
    )
    node = ClusterNode(
        args.workspace,
        args.node,
        manifest,
        config=config,
        mem_capacity=args.mem_capacity,
        wal_sync=args.wal_sync,
    )

    async def serve() -> None:
        host, port = await node.start()
        for shard_id, address in sorted(node.data_addresses().items()):
            print(f"  shard {shard_id}: {address}", flush=True)
        # Same readiness line shape as `repro serve`, so process
        # supervisors and the bench harness share one regex.
        print(
            f"serving {args.workspace} on {host}:{port} "
            f"(cluster node {args.node}, {len(node.shards)} shards, "
            f"control, loop={loop_name}; Ctrl-C stops)",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await node.stop()

    from repro.server.eventloop import install_event_loop_policy

    loop_name = install_event_loop_policy()
    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("\nstopped")
    finally:
        lock.close()
    return 0


def cmd_cluster_status(args: argparse.Namespace) -> int:
    """Ask every node's control port for its shard states."""
    import asyncio

    from repro.cluster import ClusterManifest, admin_call, fetch_manifest

    if args.manifest:
        manifest = ClusterManifest.load(args.manifest)
    elif args.seed:
        manifest = asyncio.run(fetch_manifest(args.seed))
    else:
        raise SystemExit("cluster status needs --manifest or --seed")
    print(f"manifest epoch {manifest.epoch}, {manifest.num_shards} shards")
    rows = []
    for name, control in sorted(manifest.nodes.items()):
        try:
            status = asyncio.run(admin_call(control, {"cmd": "status"}))
        except Exception as exc:  # noqa: BLE001 — report, don't die
            rows.append([name, control, "-", f"unreachable: {exc}", "-", "-"])
            continue
        for shard_id, shard in sorted(status["shards"].items()):
            rows.append(
                [
                    name,
                    control,
                    shard_id,
                    shard["phase"]
                    + (f" -> {shard['moved_to']}" if shard["moved_to"] else ""),
                    shard["height"],
                    shard["address"],
                ]
            )
    print(format_table(
        ["node", "control", "shard", "phase", "height", "address"], rows
    ))
    return 0


def cmd_cluster_migrate(args: argparse.Namespace) -> int:
    """Live-migrate one shard to another node, rewriting the manifest."""
    import tempfile

    from repro.cluster import ClusterManifest, migrate_shard_sync

    manifest = ClusterManifest.load(args.manifest)
    old = manifest.shards[args.shard]
    snapshot_dir = args.snapshot_dir or tempfile.mkdtemp(
        prefix=f"repro-migrate-shard{args.shard}-"
    )
    print(
        f"migrating shard {args.shard}: {old.node} ({old.address}) "
        f"-> {args.to_node} ..."
    )
    new_manifest = migrate_shard_sync(
        manifest,
        args.shard,
        args.to_node,
        snapshot_dir=snapshot_dir,
        timeout=args.timeout,
    )
    new_manifest.save(args.manifest)
    moved = new_manifest.shards[args.shard]
    print(
        f"shard {args.shard} now on {moved.node} ({moved.address}); "
        f"manifest epoch {manifest.epoch} -> {new_manifest.epoch}, "
        f"rewrote {args.manifest}"
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant lint suite (``repro.analysis``) over the tree."""
    from pathlib import Path

    from repro.analysis import run_lint

    root = Path(args.root) if args.root else None
    report = run_lint(root=root)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 1 if report.findings else 0


def cmd_query(args: argparse.Namespace) -> int:
    """The ``repro query`` inspection group (click-based).

    click is imported lazily so every other command works in
    environments without it (e.g. minimal CI runners).
    """
    try:
        from repro.obs.query import run_query
    except ImportError:
        print(
            "repro query needs the 'click' package, which is not installed",
            file=sys.stderr,
        )
        return 2
    return run_query(args.rest)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="COLE reproduction utilities"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="inspect a COLE workspace")
    info.add_argument("workspace", help="workspace directory")
    info.set_defaults(func=cmd_info)

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", help=f"one of {sorted(_EXPERIMENTS)}")
    experiment.add_argument("--heights", help="comma-separated block heights")
    experiment.add_argument("--engines", help="comma-separated engine names")
    experiment.add_argument(
        "--shards", help="comma-separated shard counts (fig16 sharding sweep)"
    )
    experiment.add_argument(
        "--replicas",
        help="comma-separated replica counts (fig19 read-scaling sweep)",
    )
    experiment.set_defaults(func=cmd_experiment)

    serve = sub.add_parser("serve", help="serve a workspace over TCP")
    serve.add_argument("workspace", help="engine workspace directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7407)
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="shard count (>1 serves a ShardedCole; 0 = auto-detect from "
        "the workspace, new workspaces default to 1)",
    )
    serve.add_argument(
        "--mem-capacity", type=int, default=512, help="per-shard L0 capacity B"
    )
    serve.add_argument(
        "--batch-puts", type=int, default=512, help="group-commit size threshold"
    )
    serve.add_argument(
        "--batch-delay-ms",
        type=float,
        default=10.0,
        help="group-commit time threshold (milliseconds)",
    )
    serve.add_argument("--cache-capacity", type=int, default=8192)
    serve.add_argument(
        "--negative-cache-capacity",
        type=int,
        default=4096,
        help="known-absent address cache entries (0 disables)",
    )
    serve.add_argument(
        "--wal",
        action="store_true",
        help="durable serving: write-ahead log + crash recovery",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        help="WAL directory (default: <workspace>/wal)",
    )
    serve.add_argument(
        "--wal-sync",
        choices=("none", "batch", "always"),
        default="batch",
        help="fsync policy: batch = group fsync per ack wave (default)",
    )
    serve.add_argument(
        "--wal-segment-kb", type=int, default=4096, help="segment roll size"
    )
    serve.add_argument(
        "--replica-of",
        metavar="HOST:PORT",
        default=None,
        help="replica mode: tail the primary's WAL stream and serve "
        "reads; PUT/FLUSH answer NOT_PRIMARY",
    )
    serve.add_argument(
        "--bootstrap-from",
        metavar="SNAPSHOT",
        default=None,
        help="restore this snapshot into the workspace first (replica "
        "mode, empty workspace only)",
    )
    serve.set_defaults(func=cmd_serve)

    snapshot = sub.add_parser(
        "snapshot", help="consistent point-in-time copy of a workspace"
    )
    snapshot.add_argument(
        "workspace", nargs="?", help="source workspace directory"
    )
    snapshot.add_argument(
        "dest", nargs="?", help="snapshot directory (must be empty)"
    )
    snapshot.add_argument(
        "--shards", type=int, default=0, help="shard count (0 = auto-detect)"
    )
    snapshot.add_argument(
        "--incremental-from",
        metavar="PREV",
        help="copy only runs new since the snapshot at PREV (chainable)",
    )
    snapshot.add_argument(
        "--verify-only",
        metavar="PATH",
        help="verify the snapshot chain at PATH and exit (no copy)",
    )
    snapshot.set_defaults(func=cmd_snapshot)

    restore = sub.add_parser(
        "restore", help="restore a snapshot into a fresh workspace"
    )
    restore.add_argument("snapshot", help="snapshot directory")
    restore.add_argument("dest", help="new workspace directory (must be empty)")
    restore.set_defaults(func=cmd_restore)

    export = sub.add_parser(
        "export", help="stream a keyspace slice into a portable file"
    )
    export.add_argument(
        "-w", "--workspace", required=True, help="source workspace directory"
    )
    export.add_argument(
        "-o", "--output", required=True, help="output stream file"
    )
    export.add_argument(
        "--at-blk",
        type=int,
        default=None,
        help="block height of the slice (default: current height)",
    )
    export.add_argument("--low", help="lowest address, hex (default: zero)")
    export.add_argument("--high", help="highest address, hex (default: max)")
    export.add_argument(
        "--shards", type=int, default=0, help="shard count (0 = auto-detect)"
    )
    export.set_defaults(func=cmd_export)

    importer = sub.add_parser(
        "import", help="replay an export stream into a fresh workspace"
    )
    importer.add_argument("file", help="export stream file")
    importer.add_argument(
        "-w", "--workspace", required=True, help="destination workspace (empty)"
    )
    importer.add_argument(
        "--shards", type=int, default=1, help="shard count of the new workspace"
    )
    importer.set_defaults(func=cmd_import)

    loadgen = sub.add_parser("loadgen", help="drive a running server with load")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7407)
    loadgen.add_argument("--clients", type=int, default=32)
    loadgen.add_argument("--ops", type=int, default=200, help="ops per client")
    loadgen.add_argument("--read-fraction", type=float, default=0.5)
    loadgen.add_argument(
        "--scan-frac",
        type=float,
        default=0.0,
        help="fraction of ops that are key-ordered range scans",
    )
    loadgen.add_argument(
        "--scan-len",
        type=int,
        default=16,
        help="max results per scan (lengths draw uniformly from [1, N])",
    )
    loadgen.add_argument(
        "--workload",
        choices=tuple("ABCE") + tuple("abce"),
        default=None,
        help="YCSB workload letter preset (E = scan heavy); overrides "
        "--read-fraction/--scan-frac",
    )
    loadgen.add_argument("--num-keys", type=int, default=1024)
    loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed", help="loop discipline"
    )
    loadgen.add_argument(
        "--rate", type=float, default=2000.0, help="total ops/s (open loop)"
    )
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument(
        "--multi-get-size",
        type=int,
        default=1,
        help="issue reads as MULTI_GET batches of this many keys "
        "(1 = plain GETs)",
    )
    loadgen.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    loadgen.add_argument(
        "--manifest",
        default=None,
        help="cluster manifest file: route ops across the cluster instead "
        "of --host/--port",
    )
    loadgen.add_argument(
        "--seeds",
        default=None,
        help="comma-separated cluster seed addresses (HOST:PORT,...) to "
        "fetch the manifest from",
    )
    loadgen.set_defaults(func=cmd_loadgen)

    cluster = sub.add_parser(
        "cluster", help="multi-process cluster: init / serve / status / migrate"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    cluster_init = cluster_sub.add_parser(
        "init", help="write an epoch-0 cluster manifest"
    )
    cluster_init.add_argument("manifest", help="manifest file to write")
    cluster_init.add_argument("--nodes", type=int, default=2)
    cluster_init.add_argument("--shards", type=int, default=4)
    cluster_init.add_argument("--host", default="127.0.0.1")
    cluster_init.add_argument(
        "--base-port",
        type=int,
        default=7450,
        help="node i gets control port base+16i, its shards the ports after",
    )
    cluster_init.set_defaults(func=cmd_cluster_init)

    cluster_serve = cluster_sub.add_parser(
        "serve", help="serve one node's shard group + control port"
    )
    cluster_serve.add_argument("workspace", help="this node's workspace directory")
    cluster_serve.add_argument(
        "--node", required=True, help="node name from the manifest (e.g. node-0)"
    )
    cluster_serve.add_argument(
        "-m", "--manifest", required=True, help="cluster manifest file"
    )
    cluster_serve.add_argument("--mem-capacity", type=int, default=512)
    cluster_serve.add_argument(
        "--batch-puts", type=int, default=512, help="group-commit size threshold"
    )
    cluster_serve.add_argument(
        "--batch-delay-ms",
        type=float,
        default=10.0,
        help="group-commit time threshold (milliseconds)",
    )
    cluster_serve.add_argument(
        "--wal-sync",
        choices=("none", "batch", "always"),
        default="batch",
        help="per-shard WAL fsync policy",
    )
    cluster_serve.set_defaults(func=cmd_cluster_serve)

    cluster_status = cluster_sub.add_parser(
        "status", help="shard states from every node's control port"
    )
    cluster_status.add_argument(
        "-m", "--manifest", default=None, help="cluster manifest file"
    )
    cluster_status.add_argument(
        "--seed",
        default=None,
        help="fetch the manifest from this member address instead",
    )
    cluster_status.set_defaults(func=cmd_cluster_status)

    cluster_migrate = cluster_sub.add_parser(
        "migrate", help="live-migrate one shard to another node"
    )
    cluster_migrate.add_argument("shard", type=int, help="shard id to move")
    cluster_migrate.add_argument("to_node", help="destination node name")
    cluster_migrate.add_argument(
        "-m", "--manifest", required=True, help="manifest file (rewritten)"
    )
    cluster_migrate.add_argument(
        "--snapshot-dir",
        default=None,
        help="bootstrap snapshot directory (default: a temp dir)",
    )
    cluster_migrate.add_argument("--timeout", type=float, default=60.0)
    cluster_migrate.set_defaults(func=cmd_cluster_migrate)

    lint = sub.add_parser(
        "lint",
        help="run the invariant lint suite (gate discipline, async "
        "blocking calls, error taxonomy)",
    )
    lint.add_argument(
        "--root",
        default=None,
        help="tree to analyze (default: the installed repro package)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the machine-readable CI artifact)",
    )
    lint.set_defaults(func=cmd_lint)

    # The query group is click-based and parses its own arguments:
    # everything after "query" passes through untouched (add_help=False
    # so "repro query --help" reaches click's help, not argparse's).
    query = sub.add_parser(
        "query",
        help="inspect a workspace or live server (levels/segments/bloom/"
        "wal/replication/caches/latency/audit)",
        add_help=False,
    )
    query.add_argument("rest", nargs=argparse.REMAINDER)
    query.set_defaults(func=cmd_query)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    if argv is None:
        argv = sys.argv[1:]
    # "query" owns its own argument parsing (click); hand everything
    # after it over untouched.  argparse's REMAINDER would reject a
    # leading option token ("query -w ..."), so dispatch before it.
    if argv and argv[0] == "query":
        return cmd_query(argparse.Namespace(rest=list(argv[1:])))
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
