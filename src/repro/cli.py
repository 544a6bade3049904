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
    python -m repro.cli query -w /path/to/workspace levels
    python -m repro.cli cluster init manifest.json --nodes 2 --shards 4
    python -m repro.cli cluster serve /data/node0 --node node-0 -m manifest.json
    python -m repro.cli cluster status -m manifest.json
    python -m repro.cli cluster migrate 0 node-1 -m manifest.json --snapshot-dir /tmp/s0

``repro`` is one click group; ``repro query`` (:mod:`repro.obs.query`)
is one of its subgroups.  :func:`main` maps every outcome to an exit
code: 0 on success; 1 for an operational failure (a
:mod:`repro.common.errors` error, ``OSError`` or ``ValueError``, printed
as one ``Error: <Class>: <message>`` line on stderr) or a verb's own
failed check; 2 for a usage error.  Verb bodies import what they use, so
``repro serve`` starts up paying for click and nothing else.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Any, Callable, Iterator, List, NamedTuple, Optional

import click

from repro.common.errors import IntegrityError, ReproError, StorageError
from repro.wal.log import SYNC_POLICIES

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


# =============================================================================
# the store every workspace verb opens
# =============================================================================

def _lock_workspace(workspace: str, purpose: str) -> Any:
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
        raise StorageError(
            f"workspace {workspace} is locked by another process "
            f"(a running `repro serve`?); stop it before running {purpose}"
        )
    return handle


class Store(NamedTuple):
    """An open workspace: what :func:`open_store` yields."""

    engine: Any
    wal: Any  # the replayed workspace WAL, or None
    num_shards: int
    replayed: Any  # its ReplayStats, or None


@contextlib.contextmanager
def open_store(
    workspace: str,
    purpose: str,
    num_shards: int = 0,
    mem_capacity: int = 512,
    replay: bool = True,
) -> Iterator[Store]:
    """Lock ``workspace``, open (recovering) its engine and, with
    ``replay``, replay its WAL so the engine holds every durable write;
    everything closes in reverse order on exit.

    ``num_shards`` 0 re-opens an existing workspace with the shard count
    it was created with (1 for a new one): the sharded engine creates
    its shard directories eagerly, so detection works before the first
    cascade writes a manifest.
    """
    import os

    from repro.common.params import ColeParams, ShardParams
    from repro.core import Cole
    from repro.sharding import ShardedCole, shard_dirs

    num_shards = num_shards or len(shard_dirs(workspace)) or 1
    with contextlib.ExitStack() as stack:
        stack.enter_context(_lock_workspace(workspace, purpose))
        params = ColeParams(async_merge=True, mem_capacity=mem_capacity)
        if num_shards > 1:
            engine = ShardedCole(
                workspace, ShardParams(cole=params, num_shards=num_shards)
            )
        else:
            engine = Cole(workspace, params)
        stack.callback(engine.close)
        wal = replayed = None
        wal_dir = os.path.join(workspace, WAL_DIRNAME)
        if replay and os.path.isdir(wal_dir):
            from repro.wal import WriteAheadLog, replay_wal

            wal = stack.enter_context(WriteAheadLog(wal_dir, num_shards=num_shards))
            replayed = replay_wal(engine, wal)
        yield Store(engine, wal, num_shards, replayed)


# =============================================================================
# the group
# =============================================================================

class _Repro(click.Group):
    """The ``repro`` group.  Its ``query`` subgroup is resolved on first
    use, so no other verb loads :mod:`repro.obs.query` (a ``repro
    serve`` process carries click and its own tree, nothing more)."""

    def list_commands(self, ctx: click.Context) -> List[str]:
        return sorted([*super().list_commands(ctx), "query"])

    def get_command(self, ctx: click.Context, name: str) -> Optional[click.Command]:
        if name == "query":
            from repro.obs.query import query_group

            return query_group
        return super().get_command(ctx, name)


@click.group(name="repro", cls=_Repro)
def cli() -> None:
    """COLE reproduction utilities."""


def _serving_options(fn: Callable[..., Any]) -> Callable[..., Any]:
    """The engine and group-commit flags ``serve`` and ``cluster serve``
    share."""
    options = (
        click.option("--mem-capacity", type=int, default=512,
                     help="per-shard L0 capacity B"),
        click.option("--batch-puts", type=int, default=512,
                     help="group-commit size threshold"),
        click.option("--batch-delay-ms", type=float, default=10.0,
                     help="group-commit time threshold (milliseconds)"),
        click.option("--wal-sync", type=click.Choice(SYNC_POLICIES),
                     default="batch",
                     help="WAL fsync policy: batch = group fsync per ack wave"),
    )
    for option in reversed(options):
        fn = option(fn)
    return fn


@cli.command()
@click.argument("workspace")
def info(workspace: str) -> int:
    """Inspect a COLE workspace: manifest and committed runs."""
    from repro.bench.report import format_bytes
    from repro.core.manifest import load_manifest
    from repro.obs.query import collect_levels, format_output, shard_roots

    shards = shard_roots(workspace)
    if shards != [("-", workspace)]:
        print(f"workspace:        {workspace} (sharded, {len(shards)} shards)")
        print("inspect a shard:")
        for _name, directory in shards:
            print(f"  repro info {directory}")
        return 0
    manifest = load_manifest(workspace)
    print(f"workspace:        {workspace}")
    print(f"checkpoint block: {manifest.checkpoint_blk}")
    print(f"async merge:      {manifest.async_merge}")
    rows = collect_levels(workspace)
    for row in rows:
        row["size"] = format_bytes(row["bytes"])
    print(format_output(["level", "group", "run", "entries", "size"], rows, "table"))
    total = sum(row["bytes"] for row in rows)
    print(f"total committed run bytes: {format_bytes(total)}")
    return 0


def _sweep_options(fn: Callable[..., Any]) -> Callable[..., Any]:
    for flag, (parameter, _parse) in reversed(list(_SWEEP_FLAGS.items())):
        help_text = f"comma-separated {parameter.replace('_', ' ')}"
        fn = click.option(f"--{flag}", help=help_text)(fn)
    return fn


@cli.command()
@click.argument("name")
@_sweep_options
def experiment(name: str, **sweeps: Optional[str]) -> int:
    """Run one paper experiment (NAME, see README) and print its series."""
    import inspect

    from repro.bench import experiments
    from repro.obs.query import format_output

    if name not in _EXPERIMENTS:
        print(f"unknown experiment {name!r}; choose from {sorted(_EXPERIMENTS)}")
        return 2
    function_name, kwargs = _EXPERIMENTS[name]
    driver = getattr(experiments, function_name)
    accepted = inspect.signature(driver).parameters
    call_kwargs = dict(kwargs)
    for flag, (parameter, parse) in _SWEEP_FLAGS.items():
        value = sweeps[flag]
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
        print(format_output(list(result[0].keys()), result, "table"))
    return 0


@cli.command()
@click.argument("workspace")
@click.option("--host", default="127.0.0.1")
@click.option("--port", type=int, default=7407)
@click.option("--shards", type=int, default=0,
              help="shard count (>1 serves a ShardedCole; 0 = auto-detect "
              "from the workspace, new workspaces default to 1)")
@_serving_options
@click.option("--negative-cache-capacity", type=int, default=4096,
              help="known-absent address cache entries (0 disables)")
@click.option("--wal", is_flag=True,
              help="durable serving: write-ahead log + crash recovery")
@click.option("--wal-dir", default=None,
              help="WAL directory (default: <workspace>/wal)")
@click.option("--replica-of", metavar="HOST:PORT", default=None,
              help="replica mode: tail the primary's WAL stream and serve "
              "reads; PUT/FLUSH answer NOT_PRIMARY")
@click.option("--bootstrap-from", metavar="SNAPSHOT", default=None,
              help="restore this snapshot into the workspace first (replica "
              "mode, empty workspace only)")
@click.pass_context
def serve(
    ctx: click.Context,
    workspace: str,
    host: str,
    port: int,
    shards: int,
    mem_capacity: int,
    batch_puts: int,
    batch_delay_ms: float,
    wal_sync: str,
    negative_cache_capacity: int,
    wal: bool,
    wal_dir: Optional[str],
    replica_of: Optional[str],
    bootstrap_from: Optional[str],
) -> int:
    """Serve a workspace over TCP until interrupted."""
    import asyncio
    import gc
    import os

    from repro.server import ColeServer, ServerConfig
    from repro.server.protocol import parse_address

    try:
        primary = parse_address(replica_of) if replica_of else None
    except StorageError as exc:
        raise click.BadParameter(str(exc), param_hint="--replica-of")
    if primary is not None and wal:
        raise click.UsageError(
            "--replica-of and --wal are mutually exclusive: a replica's "
            "recovery source is the primary's stream, not a local WAL"
        )
    if bootstrap_from:
        if primary is None:
            raise click.UsageError("--bootstrap-from only makes sense with --replica-of")
        if not os.path.isdir(workspace) or not os.listdir(workspace):
            from repro.wal import restore_store

            meta = restore_store(bootstrap_from, workspace)
            print(
                f"bootstrapped {workspace} from snapshot "
                f"{bootstrap_from} ({len(meta['files'])} files)",
                flush=True,
            )
    # A primary's WAL is the server's to recover (it reports what it
    # replayed); a replica replays the WAL tail a restored snapshot
    # ships, so it subscribes at the snapshot's root, not behind it.
    store = ctx.with_resource(open_store(
        workspace, "a second server", shards, mem_capacity, replay=primary is not None
    ))
    if store.replayed is not None and store.replayed.replayed_anything:
        print(
            f"replayed {store.replayed.puts_replayed} snapshot-tail writes "
            f"in {store.replayed.blocks_replayed} blocks",
            flush=True,
        )
    log = None
    if wal:
        from repro.wal import WriteAheadLog

        log = WriteAheadLog(
            wal_dir or os.path.join(workspace, WAL_DIRNAME),
            num_shards=store.num_shards,
            sync_policy=wal_sync,
        )
        ctx.call_on_close(log.close)
    config = ServerConfig(
        batch_max_puts=batch_puts,
        batch_max_delay=batch_delay_ms / 1000.0,
        negative_cache_capacity=negative_cache_capacity,
    )
    server = ColeServer(
        store.engine, host=host, port=port, config=config, wal=log, replica_of=primary
    )

    async def run() -> None:
        bound_host, bound_port = await server.start()
        # Start-up (imports, argument parsing, WAL recovery) leaves cyclic
        # garbage that only a full collection frees, and a steady serving
        # load rarely triggers one: free it once, before the first request.
        gc.collect()
        stats = server.replay_stats
        if stats is not None and stats.replayed_anything:
            print(
                f"recovered {stats.puts_replayed} writes in "
                f"{stats.blocks_replayed} blocks from the WAL "
                f"(heights {stats.first_height}..{stats.last_height})",
                flush=True,
            )
        sharded = f", {store.num_shards} shards" if store.num_shards > 1 else ""
        durability = f", wal={log.sync_policy}" if log is not None else ""
        role = f", replica of {replica_of}" if primary is not None else ""
        print(
            f"serving {workspace} on {bound_host}:{bound_port}{sharded}{durability}"
            f"{role} (loop=asyncio; Ctrl-C stops)",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


@cli.command()
@click.argument("workspace", required=False)
@click.argument("dest", required=False)
@click.option("--shards", type=int, default=0, help="shard count (0 = auto-detect)")
@click.option("--incremental-from", metavar="PREV",
              help="copy only runs new since the snapshot at PREV (chainable)")
@click.option("--verify-only", metavar="PATH",
              help="verify the snapshot chain at PATH and exit (no copy)")
@click.pass_context
def snapshot(
    ctx: click.Context,
    workspace: Optional[str],
    dest: Optional[str],
    shards: int,
    incremental_from: Optional[str],
    verify_only: Optional[str],
) -> int:
    """Take a consistent point-in-time snapshot of a workspace.

    Offline by design: the workspace lock aborts the copy when another
    process (a live ``repro serve``) holds the store — the commit gate
    only coordinates threads *within* one process.

    ``--incremental-from PREV`` copies only runs new since ``PREV``
    (which may itself be incremental — chains verify and restore hop by
    hop).  ``--verify-only PATH`` checks an existing snapshot chain and
    takes no copy; the positional arguments are not used.
    """
    from repro.wal import snapshot_store, verify_snapshot

    if verify_only:
        if workspace or dest:
            raise click.UsageError(
                "snapshot --verify-only takes the snapshot path only "
                "(no workspace/dest arguments)"
            )
        try:
            meta = verify_snapshot(verify_only)
        except (IntegrityError, StorageError) as exc:
            print(f"snapshot verification FAILED: {exc}")
            return 1
        chain = "incremental" if meta.get("parent") else "full"
        print(f"snapshot:    {verify_only} ({chain}) OK")
        print(f"root digest: {meta['root_digest']}")
        print(
            f"files:       {len(meta['files'])} copied, "
            f"{len(meta.get('reused', {}))} reused from the parent chain"
        )
        return 0
    if not workspace or not dest:
        raise click.UsageError("snapshot requires workspace and dest arguments")
    from repro.bench.report import format_bytes

    # The replay brings the in-memory level back first, so the recorded
    # root digest covers every write the WAL still owes the engine.
    store = ctx.with_resource(open_store(workspace, "snapshot", shards))
    meta = snapshot_store(store.engine, dest, wal=store.wal, parent=incremental_from)
    print(f"snapshot:    {dest}")
    print(f"kind:        {meta['kind']} ({meta['num_shards']} shards)")
    print(f"root digest: {meta['root_digest']}")
    if incremental_from:
        copied = sum(attrs["size"] for attrs in meta["files"].values())
        print(
            f"files:       {len(meta['files'])} copied ({format_bytes(copied)}), "
            f"{len(meta['reused'])} reused from {incremental_from}"
        )
    else:
        print(f"files:       {len(meta['files'])}")
    return 0


@cli.command()
@click.argument("snapshot")
@click.argument("dest")
@click.pass_context
def restore(ctx: click.Context, snapshot: str, dest: str) -> int:
    """Restore a snapshot into a fresh workspace and verify its root."""
    from repro.wal import restore_store

    meta = restore_store(snapshot, dest)
    store = ctx.with_resource(open_store(dest, "restore", meta["num_shards"]))
    root = store.engine.root_digest().hex()
    print(f"restored:    {dest} ({len(meta['files'])} files verified)")
    print(f"root digest: {root}")
    if root != meta["root_digest"]:
        print(f"MISMATCH:    snapshot recorded {meta['root_digest']}")
        return 1
    print("root digest matches the snapshot record")
    return 0


@cli.command()
@click.option("-w", "--workspace", required=True, help="source workspace directory")
@click.option("-o", "--output", required=True, help="output stream file")
@click.option("--at-blk", type=int, default=None,
              help="block height of the slice (default: current height)")
@click.option("--low", help="lowest address, hex; a prefix pads with 00 (default: zero)")
@click.option("--high", help="highest address, hex; a prefix pads with ff (default: max)")
@click.option("--shards", type=int, default=0, help="shard count (0 = auto-detect)")
@click.pass_context
def export(
    ctx: click.Context,
    workspace: str,
    output: str,
    at_blk: Optional[int],
    low: Optional[str],
    high: Optional[str],
    shards: int,
) -> int:
    """Stream a snapshot-consistent keyspace slice into a portable file.

    Rides the engine's paged range-scan cursors: memory stays bounded
    by the page size however large the slice.  The WAL is replayed
    first (like ``repro snapshot``) so the slice sees every durable
    write.  The stream lands at ``--output`` only once it is complete,
    so a failed export leaves a previous file there untouched.
    """
    import os

    from repro.bench.report import format_bytes
    from repro.common.params import SystemParams
    from repro.core.export import export_slice
    from repro.obs.query import parse_addr_bound

    width = SystemParams().addr_size  # the geometry open_store opens with
    addr_low = parse_addr_bound(low, width, b"\x00") if low is not None else None
    addr_high = parse_addr_bound(high, width, b"\xff") if high is not None else None
    store = ctx.with_resource(open_store(workspace, "export", shards))
    temp = f"{output}.tmp"
    try:
        with open(temp, "wb") as out:
            stats = export_slice(
                store.engine, out, at_blk=at_blk, addr_low=addr_low, addr_high=addr_high
            )
        os.replace(temp, output)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
    print(f"exported:    {output} ({format_bytes(os.path.getsize(output))})")
    print(f"triples:     {stats['triples']} (as of block {stats['at_blk']})")
    print(f"source root: {stats['root']}")
    return 0


@cli.command(name="import")
@click.argument("file")
@click.option("-w", "--workspace", required=True, help="destination workspace (empty)")
@click.option("--shards", type=int, default=1, help="shard count of the new workspace")
@click.pass_context
def import_(ctx: click.Context, file: str, workspace: str, shards: int) -> int:
    """Replay an export stream into a fresh workspace."""
    import os

    from repro.core.export import import_slice

    if os.path.isdir(workspace) and os.listdir(workspace):
        raise StorageError(
            f"import destination {workspace} is not empty; "
            "imports replay into a fresh workspace"
        )
    store = ctx.with_resource(open_store(workspace, "import", max(1, shards)))
    with open(file, "rb") as inp:
        stats = import_slice(store.engine, inp)
    store.engine.wait_for_merges()
    root = store.engine.root_digest().hex()
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


@cli.command()
@click.option("--host", default="127.0.0.1")
@click.option("--port", type=int, default=7407)
@click.option("--clients", type=int, default=32)
@click.option("--ops", type=int, default=200, help="ops per client")
@click.option("--read-fraction", type=float, default=0.5)
@click.option("--scan-frac", type=float, default=0.0,
              help="fraction of ops that are key-ordered range scans")
@click.option("--scan-len", type=int, default=16,
              help="max results per scan (lengths draw uniformly from [1, N])")
@click.option("--workload", type=click.Choice(tuple("ABCEabce")), default=None,
              help="YCSB workload letter preset (E = scan heavy); overrides "
              "--read-fraction/--scan-frac")
@click.option("--num-keys", type=int, default=1024)
@click.option("--seed", type=int, default=7)
@click.option("--multi-get-size", type=int, default=1,
              help="issue reads as MULTI_GET batches of this many keys "
              "(1 = plain GETs)")
@click.option("--json", "as_json", is_flag=True, help="print the report as JSON")
@click.option("--manifest", default=None,
              help="cluster manifest file: route ops across the cluster "
              "instead of --host/--port")
@click.option("--seeds", default=None,
              help="comma-separated cluster seed addresses (HOST:PORT,...) "
              "to fetch the manifest from")
def loadgen(
    host: str,
    port: int,
    clients: int,
    ops: int,
    read_fraction: float,
    scan_frac: float,
    scan_len: int,
    workload: Optional[str],
    num_keys: int,
    seed: int,
    multi_get_size: int,
    as_json: bool,
    manifest: Optional[str],
    seeds: Optional[str],
) -> int:
    """Drive a running server with concurrent YCSB-style clients.

    Exits non-zero when any op errored — a loadgen run against a broken
    server must not report a clean throughput number and exit 0.
    """
    from repro.server import LoadgenParams, format_report, run_loadgen_sync

    kwargs = dict(
        clients=clients,
        ops_per_client=ops,
        num_keys=num_keys,
        scan_length=scan_len,
        seed=seed,
        multi_get_size=multi_get_size,
    )
    if workload:
        # A YCSB workload letter presets the op mix (E = scan heavy);
        # explicit fractions would contradict it.
        params = LoadgenParams.for_workload(workload, **kwargs)
    else:
        params = LoadgenParams(
            read_fraction=read_fraction, scan_fraction=scan_frac, **kwargs
        )
    client_factory = None
    if manifest or seeds:
        # Cluster target: every worker routes by the manifest through
        # the same connect() factory the single-server path uses.
        from repro.server import connect

        seed_list = tuple(s for s in (seeds or "").split(",") if s)
        client_factory = lambda: connect(  # noqa: E731
            manifest_file=manifest, seeds=seed_list
        )
    report = run_loadgen_sync(host, port, params, client_factory)
    if as_json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_report(report))
    return 1 if report.errors else 0


@cli.group()
def cluster() -> None:
    """Multi-process cluster: init / serve / status / migrate."""


@cluster.command(name="init")
@click.argument("manifest")
@click.option("--nodes", type=int, default=2)
@click.option("--shards", type=int, default=4)
@click.option("--host", default="127.0.0.1")
@click.option("--base-port", type=int, default=7450,
              help="node i gets control port base+16i, its shards the ports after")
def cluster_init(manifest: str, nodes: int, shards: int, host: str, base_port: int) -> int:
    """Write an epoch-0 cluster manifest with round-robin placement."""
    from repro.cluster import plan_manifest

    plan = plan_manifest(nodes, shards, host=host, base_port=base_port)
    plan.save(manifest)
    print(f"wrote {manifest} (epoch 0, {shards} shards)")
    for name, control in sorted(plan.nodes.items()):
        owned = plan.shards_of_node(name)
        print(f"  {name}: control {control}, shards {list(owned)}")
        print(f"    repro cluster serve <workspace>/{name} --node {name} "
              f"-m {manifest}")
    return 0


@cluster.command(name="serve")
@click.argument("workspace")
@click.option("--node", required=True, help="node name from the manifest (e.g. node-0)")
@click.option("-m", "--manifest", required=True, help="cluster manifest file")
@_serving_options
@click.pass_context
def cluster_serve(
    ctx: click.Context,
    workspace: str,
    node: str,
    manifest: str,
    mem_capacity: int,
    batch_puts: int,
    batch_delay_ms: float,
    wal_sync: str,
) -> int:
    """Serve one cluster node (its shard group + control port)."""
    import asyncio

    from repro.cluster import ClusterManifest, ClusterNode
    from repro.server import ServerConfig

    plan = ClusterManifest.load(manifest)
    ctx.with_resource(_lock_workspace(workspace, "a second cluster node"))
    config = ServerConfig(
        batch_max_puts=batch_puts, batch_max_delay=batch_delay_ms / 1000.0
    )
    member = ClusterNode(
        workspace, node, plan, config=config, mem_capacity=mem_capacity,
        wal_sync=wal_sync,
    )

    async def run() -> None:
        host, port = await member.start()
        for shard_id, address in sorted(member.data_addresses().items()):
            print(f"  shard {shard_id}: {address}", flush=True)
        # Same readiness line shape as `repro serve`, so process
        # supervisors and the bench harness share one regex.
        print(
            f"serving {workspace} on {host}:{port} "
            f"(cluster node {node}, {len(member.shards)} shards, "
            f"control, loop=asyncio; Ctrl-C stops)",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await member.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


@cluster.command(name="status")
@click.option("-m", "--manifest", default=None, help="cluster manifest file")
@click.option("--seed", default=None,
              help="fetch the manifest from this member address instead")
def cluster_status(manifest: Optional[str], seed: Optional[str]) -> int:
    """Ask every node's control port for its shard states."""
    import asyncio

    from repro.cluster import ClusterManifest, admin_call, fetch_manifest
    from repro.obs.query import format_output

    if manifest:
        plan = ClusterManifest.load(manifest)
    elif seed:
        plan = asyncio.run(fetch_manifest(seed))
    else:
        raise click.UsageError("cluster status needs --manifest or --seed")
    print(f"manifest epoch {plan.epoch}, {plan.num_shards} shards")
    rows = []
    for name, control in sorted(plan.nodes.items()):
        node = {"node": name, "control": control}
        try:
            status = asyncio.run(admin_call(control, {"cmd": "status"}))
        except Exception as exc:  # noqa: BLE001 — report, don't die
            rows.append({**node, "shard": "-", "phase": f"unreachable: {exc}",
                         "height": "-", "address": "-"})
            continue
        for shard_id, shard in sorted(status["shards"].items()):
            moved = f" -> {shard['moved_to']}" if shard["moved_to"] else ""
            rows.append({**node, "shard": shard_id, "phase": shard["phase"] + moved,
                         "height": shard["height"], "address": shard["address"]})
    columns = ["node", "control", "shard", "phase", "height", "address"]
    print(format_output(columns, rows, "table"))
    return 0


@cluster.command(name="migrate")
@click.argument("shard", type=int)
@click.argument("to_node")
@click.option("-m", "--manifest", required=True, help="manifest file (rewritten)")
@click.option("--snapshot-dir", default=None,
              help="bootstrap snapshot directory (default: a temp dir)")
def cluster_migrate(
    shard: int, to_node: str, manifest: str, snapshot_dir: Optional[str]
) -> int:
    """Live-migrate one shard to another node, rewriting the manifest."""
    import tempfile

    from repro.cluster import ClusterManifest, migrate_shard_sync

    plan = ClusterManifest.load(manifest)
    old = plan.shards[shard]
    snapshot_dir = snapshot_dir or tempfile.mkdtemp(
        prefix=f"repro-migrate-shard{shard}-"
    )
    print(f"migrating shard {shard}: {old.node} ({old.address}) -> {to_node} ...")
    new_plan = migrate_shard_sync(plan, shard, to_node, snapshot_dir=snapshot_dir)
    new_plan.save(manifest)
    moved = new_plan.shards[shard]
    print(
        f"shard {shard} now on {moved.node} ({moved.address}); "
        f"manifest epoch {plan.epoch} -> {new_plan.epoch}, rewrote {manifest}"
    )
    return 0


@cli.command()
@click.option("--root", default=None,
              help="tree to analyze (default: the installed repro package)")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              help="report format (json is the machine-readable CI artifact)")
def lint(root: Optional[str], fmt: str) -> int:
    """Run the invariant lint suite (gate discipline, async blocking
    calls, error taxonomy) over the tree."""
    from pathlib import Path

    from repro.analysis import run_lint

    report = run_lint(root=Path(root) if root else None)
    print(report.to_json() if fmt == "json" else report.render_text())
    return 1 if report.findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run one ``repro`` verb; returns its exit code (module docstring)."""
    try:
        result = cli.main(args=argv, prog_name="repro", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 130
    except (ReproError, OSError, ValueError) as exc:
        click.echo(f"Error: {type(exc).__name__}: {exc}", err=True)
        return 1
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
