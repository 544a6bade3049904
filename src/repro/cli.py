"""Command-line interface: inspect, experiment, serve, snapshot, restore.

Usage (after ``pip install -e .``)::

    python -m repro.cli info /path/to/cole-workspace
    python -m repro.cli experiment fig9 [--heights 30,100] [--engines mpt,cole]
    python -m repro.cli experiment table1
    python -m repro.cli serve /path/to/workspace --port 7407 [--wal]
    python -m repro.cli serve /path/to/replica --replica-of 127.0.0.1:7407
    python -m repro.cli loadgen --port 7407 --clients 32 --ops 200 [--json]
    python -m repro.cli loadgen --port 7407 --read-fraction 0 --scan-frac 0.95 [--scan-len 50]
    python -m repro.cli loadgen --port 7407 --multi-get-size 16
    python -m repro.cli snapshot /path/to/workspace /path/to/snapshot
    python -m repro.cli snapshot --verify-only /path/to/snapshot
    python -m repro.cli restore /path/to/snapshot /path/to/new-workspace
    python -m repro.cli export -w /path/to/workspace --at-blk 100 -o slice.repx
    python -m repro.cli import slice.repx -w /path/to/new-workspace
    python -m repro.cli query -w /path/to/workspace levels

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
from repro.wal.log import SYNC_POLICIES, WAL_DIR_NAME

#: ``repro experiment`` sweep flag -> (driver parameter, element parser).
_SWEEP_FLAGS = {
    "heights": ("heights", int),
    "engines": ("engines", str),
    "nodes": ("node_counts", int),
}

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
    replayed: Any  # its ReplayStats, or None


@contextlib.contextmanager
def open_store(
    workspace: str,
    purpose: str,
    mem_capacity: int = 512,
    replay: bool = True,
) -> Iterator[Store]:
    """Lock ``workspace``, open (recovering) its engine and, with
    ``replay``, replay its WAL so the engine holds every durable write;
    everything closes in reverse order on exit.
    """
    import os

    from repro.common.params import ColeParams
    from repro.core import Cole

    with contextlib.ExitStack() as stack:
        stack.enter_context(_lock_workspace(workspace, purpose))
        engine = Cole(workspace, ColeParams(async_merge=True, mem_capacity=mem_capacity))
        stack.callback(engine.close)
        wal = replayed = None
        wal_dir = os.path.join(workspace, WAL_DIR_NAME)
        if replay and os.path.isdir(wal_dir):
            from repro.wal import WriteAheadLog, replay_wal

            wal = stack.enter_context(WriteAheadLog(wal_dir))
            replayed = replay_wal(engine, wal)
        yield Store(engine, wal, replayed)


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


@cli.command()
@click.argument("workspace")
def info(workspace: str) -> int:
    """Inspect a COLE workspace: manifest and committed runs."""
    from repro.bench.report import format_bytes
    from repro.core.manifest import load_manifest
    from repro.obs.query import collect_levels, format_output

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
    """Run one paper experiment (NAME, see README), print its series and
    the verdict of each of its claims; exit 1 when a claim fails."""
    import inspect

    from repro.bench.claims import verdicts
    from repro.bench.experiments import EXPERIMENTS, run_experiment
    from repro.obs.query import format_output

    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
        return 2
    accepted = inspect.signature(EXPERIMENTS[name].driver).parameters
    overrides = {}
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
        overrides[parameter] = tuple(parse(item) for item in value.split(","))
    rows = run_experiment(name, **overrides)
    checked = verdicts(name, rows)
    print(format_output(list(rows[0]), rows, "table"))
    print()
    print(format_output(list(checked[0]), checked, "table"))
    return 1 if any(row["verdict"] == "fails" for row in checked) else 0


def _one_engine(ctx: click.Context, param: click.Parameter, value: int) -> int:
    if value != 1:
        raise click.BadParameter("a server serves one engine")
    return value


@cli.command()
@click.argument("workspace")
@click.option("--host", default="127.0.0.1")
@click.option("--port", type=int, default=7407)
@click.option("--shards", type=int, default=1, expose_value=False,
              callback=_one_engine, help="always 1: a server serves one engine")
@click.option("--mem-capacity", type=int, default=512, help="L0 capacity B")
@click.option("--batch-puts", type=int, default=512, help="group-commit size threshold")
@click.option("--batch-delay-ms", type=float, default=10.0,
              help="group-commit time threshold (milliseconds)")
@click.option("--wal-sync", type=click.Choice(SYNC_POLICIES), default="batch",
              help="WAL fsync policy: batch = group fsync per ack wave")
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
        workspace, "a second server", mem_capacity, replay=primary is not None
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
            wal_dir or os.path.join(workspace, WAL_DIR_NAME), sync_policy=wal_sync
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
        durability = f", wal={log.sync_policy}" if log is not None else ""
        role = f", replica of {replica_of}" if primary is not None else ""
        print(
            f"serving {workspace} on {bound_host}:{bound_port}{durability}"
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
@click.option("--verify-only", metavar="PATH",
              help="verify the snapshot at PATH and exit (no checkpoint)")
@click.pass_context
def snapshot(
    ctx: click.Context,
    workspace: Optional[str],
    dest: Optional[str],
    verify_only: Optional[str],
) -> int:
    """Take a consistent point-in-time checkpoint of a workspace.

    Run files are hard-linked into DEST (copied across filesystems), the
    manifest and WAL tail copied.  Offline by design: the workspace lock
    aborts the checkpoint when another process (a live ``repro serve``)
    holds the store — the commit gate only coordinates threads *within*
    one process.

    ``--verify-only PATH`` checks an existing snapshot and takes no
    checkpoint; the positional arguments are not used.
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
        print(f"snapshot:    {verify_only} OK")
        print(f"root digest: {meta['root_digest']}")
        print(f"files:       {len(meta['files'])}")
        return 0
    if not workspace or not dest:
        raise click.UsageError("snapshot requires workspace and dest arguments")
    # The replay brings the in-memory level back first, so the recorded
    # root digest covers every write the WAL still owes the engine.
    store = ctx.with_resource(open_store(workspace, "snapshot"))
    meta = snapshot_store(store.engine, dest, wal=store.wal)
    print(f"snapshot:    {dest}")
    print(f"root digest: {meta['root_digest']}")
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
    store = ctx.with_resource(open_store(dest, "restore"))
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
@click.pass_context
def export(
    ctx: click.Context,
    workspace: str,
    output: str,
    at_blk: Optional[int],
    low: Optional[str],
    high: Optional[str],
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
    from repro.diskio import durable
    from repro.obs.query import parse_addr_bound

    width = SystemParams().addr_size  # the geometry open_store opens with
    addr_low = parse_addr_bound(low, width, b"\x00") if low is not None else None
    addr_high = parse_addr_bound(high, width, b"\xff") if high is not None else None
    store = ctx.with_resource(open_store(workspace, "export"))
    with durable.replacing(output) as out:
        stats = export_slice(
            store.engine, out, at_blk=at_blk, addr_low=addr_low, addr_high=addr_high
        )
    print(f"exported:    {output} ({format_bytes(os.path.getsize(output))})")
    print(f"triples:     {stats['triples']} (as of block {stats['at_blk']})")
    print(f"source root: {stats['root']}")
    return 0


@cli.command(name="import")
@click.argument("file")
@click.option("-w", "--workspace", required=True, help="destination workspace (empty)")
@click.pass_context
def import_(ctx: click.Context, file: str, workspace: str) -> int:
    """Replay an export stream into a fresh workspace."""
    import os

    from repro.core.export import import_slice

    if os.path.isdir(workspace) and os.listdir(workspace):
        raise StorageError(
            f"import destination {workspace} is not empty; "
            "imports replay into a fresh workspace"
        )
    store = ctx.with_resource(open_store(workspace, "import"))
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
@click.option("--num-keys", type=int, default=1024)
@click.option("--seed", type=int, default=7)
@click.option("--multi-get-size", type=int, default=1,
              help="issue reads as MULTI_GET batches of this many keys "
              "(1 = plain GETs)")
@click.option("--format", "-f", "fmt", type=click.Choice(["table", "csv", "json"]),
              default="table", show_default=True, help="output format")
def loadgen(
    host: str,
    port: int,
    clients: int,
    ops: int,
    read_fraction: float,
    scan_frac: float,
    scan_len: int,
    num_keys: int,
    seed: int,
    multi_get_size: int,
    fmt: str,
) -> int:
    """Drive a running server with concurrent YCSB-style clients.

    Prints one latency row per op kind and an ``all`` row of run totals;
    error types and samples go to stderr.  Exits non-zero when any op
    errored — a loadgen run against a broken server must not report a
    clean throughput number and exit 0.
    """
    import asyncio
    from functools import partial

    from repro.obs.query import emit
    from repro.server import LoadgenParams, connect, run_loadgen

    params = LoadgenParams(
        clients=clients,
        ops_per_client=ops,
        read_fraction=read_fraction,
        scan_fraction=scan_frac,
        num_keys=num_keys,
        scan_length=scan_len,
        seed=seed,
        multi_get_size=multi_get_size,
    )
    report = asyncio.run(run_loadgen(partial(connect, (host, port)), params))
    note = ""
    if report.errors:
        kinds = ", ".join(f"{kind} x{n}" for kind, n in sorted(report.errors_by_type.items()))
        note = "\n".join([f"errors: {report.errors} ({kinds})",
                          *(f"  e.g. {sample}" for sample in report.error_samples)])
    rows = report.rows()
    emit(list(rows[-1]), rows, fmt, note)
    return 1 if report.errors else 0


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
