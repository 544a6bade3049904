"""``repro query`` — the operator inspection CLI.

A click subcommand group answering questions against **either** a cold
workspace directory (``--workspace``) or a live server (``--server
HOST:PORT``), in ``table`` / ``csv`` / ``json`` formats::

    repro query -w /data/cole levels
    repro query -w /data/cole segments -f json
    repro query -s 127.0.0.1:7407 latency
    repro query -s 127.0.0.1:7407 audit 00ff 01ff --limit 16

File-backed subcommands (``levels``, ``segments``, ``bloom``, ``wal``)
read the immutable on-disk artifacts directly — manifests, run files,
WAL segments — which is safe against a concurrently running server
because committed runs never mutate and the WAL record scanner stops
cleanly at a torn tail.  Against ``--server`` they resolve the
workspace path from the server's STATS.  Control-plane subcommands
(``replication``, ``caches``, ``latency``) read live STATS / METRICS;
against a cold workspace they degrade to an empty answer with a note
(process state does not outlive the process).

:mod:`repro.cli` mounts this group as ``repro query`` (loaded on first
use) and renders its other verbs' tables through :func:`format_output`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from typing import Any, Callable, List, Optional, Tuple

import click

from repro.common.errors import StorageError
from repro.obs.registry import parse_exposition, quantile_from_buckets
from repro.sharding import shard_dirs

#: Random absent-address probes for the measured bloom FPR.
DEFAULT_BLOOM_PROBES = 512


# =============================================================================
# target resolution (workspace path vs live server)
# =============================================================================

class QueryTarget:
    """Where answers come from: a directory, a server, or both.

    STATS / METRICS are fetched once per invocation and cached — every
    subcommand sees one consistent snapshot.
    """

    def __init__(
        self, workspace: Optional[str], server: Optional[Tuple[str, int]]
    ) -> None:
        self.workspace = workspace
        self.server = server
        self._stats: Optional[dict] = None
        self._metrics_text: Optional[str] = None

    @property
    def live(self) -> bool:
        return self.server is not None

    def call(self, fn: Callable[[Any], Any]) -> Any:
        """Run ``fn(client)`` (async) against the live server."""
        import asyncio

        async def go() -> Any:
            from repro.server.client import connect

            async with connect(self.server) as client:
                return await fn(client)

        return asyncio.run(go())

    def stats(self) -> dict:
        if self._stats is None:
            self._stats = self.call(lambda client: client.stats())
        return self._stats

    def metrics_text(self) -> str:
        if self._metrics_text is None:
            self._metrics_text = self.call(lambda client: client.metrics())
        return self._metrics_text

    def resolve_workspace(self) -> str:
        """The on-disk workspace: given directly, or asked of the server."""
        if self.workspace is not None:
            return self.workspace
        path = (self.stats().get("engine") or {}).get("workspace")
        if not path:
            raise click.ClickException(
                "the server did not report a workspace path in STATS"
            )
        return path


# =============================================================================
# shared options, parsing and rendering
# =============================================================================

def parse_addr_bound(text: str, width: int, fill: bytes) -> bytes:
    """A hex address bound: a prefix is padded with ``fill`` bytes to
    ``width`` (``00`` for a low bound, ``ff`` for a high one).

    Non-hex text raises ``ValueError``; more than ``width`` bytes is a
    usage error.
    """
    raw = bytes.fromhex(text)
    if len(raw) > width:
        raise click.BadParameter(
            f"addresses are at most {width} bytes, got {len(raw)} ({text!r})"
        )
    return raw + fill * (width - len(raw))


def format_option(fn: Callable[..., Any]) -> Callable[..., Any]:
    return click.option(
        "--format",
        "-f",
        "fmt",
        type=click.Choice(["table", "csv", "json"]),
        default="table",
        show_default=True,
        help="output format",
    )(fn)


def format_output(columns: List[str], rows: List[dict], fmt: str) -> str:
    """Render ``rows`` (list of dicts) in the requested format."""
    from repro.bench.report import format_table

    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(column, "") for column in columns])
        return buffer.getvalue().rstrip("\n")
    return format_table(
        columns, [[row.get(column, "") for column in columns] for row in rows]
    )


def emit(columns: List[str], rows: List[dict], fmt: str, note: str = "") -> None:
    if note:
        click.echo(note, err=True)
    click.echo(format_output(columns, rows, fmt))


# =============================================================================
# collectors (plain functions — the tests drive these directly too)
# =============================================================================

def shard_roots(workspace: str) -> List[Tuple[str, str]]:
    """``(shard_label, directory)`` pairs covering the workspace.

    A sharded workspace is a directory of ``shard-NN`` subdirectories
    (no root manifest); a single-engine workspace is its own root.
    """
    from repro.core.manifest import MANIFEST_NAME

    names = shard_dirs(workspace)
    if names and not os.path.isfile(os.path.join(workspace, MANIFEST_NAME)):
        return [(name, os.path.join(workspace, name)) for name in names]
    return [("-", workspace)]


def committed_runs(workspace: str) -> List[Tuple[str, str, int, str, object]]:
    """Every manifest-committed run: ``(shard, dir, level, group, record)``."""
    from repro.core.manifest import load_manifest

    out = []
    for shard, directory in shard_roots(workspace):
        manifest = load_manifest(directory)
        for level, groups in sorted(manifest.levels.items()):
            for role, records in sorted(groups.items()):
                for record in records:
                    out.append((shard, directory, level, role, record))
    return out


def collect_levels(workspace: str) -> List[dict]:
    """Runs, entry counts, and byte sizes per level per shard."""
    from repro.core.run import RUN_SUFFIXES

    rows = []
    for shard, directory, level, role, record in committed_runs(workspace):
        size = 0
        for suffix in RUN_SUFFIXES:
            path = os.path.join(directory, record.name + suffix)
            if os.path.exists(path):
                size += os.path.getsize(path)
        rows.append(
            {
                "shard": shard,
                "level": level,
                "group": role,
                "run": record.name,
                "entries": record.num_entries,
                "bytes": size,
            }
        )
    return rows


def collect_segments(workspace: str, page_size: int = 4096) -> List[dict]:
    """Learned-index (PLM) statistics per committed run.

    The index file is self-describing (its metadata page records the
    layer table and ``models_per_page``), so a cold read needs only the
    page size.  ``seek_pages`` is the predicted point-lookup IO: one
    page per model layer plus one value page — the ``Cmodel`` bound.
    """
    from repro.core.indexfile import IndexFile
    from repro.common.params import SystemParams
    from repro.diskio.workspace import Workspace

    rows = []
    params = SystemParams(page_size=page_size)
    for shard, directory, level, _role, record in committed_runs(workspace):
        ws = Workspace(directory, page_size)
        try:
            index = IndexFile(
                ws.open_file(f"{record.name}.idx", category="index", create=False),
                params,
            )
            segments = index.num_bottom_models
            epsilon = index.models_per_page // 2
            rows.append(
                {
                    "shard": shard,
                    "level": level,
                    "run": record.name,
                    "entries": record.num_entries,
                    "segments": segments,
                    "layers": index.num_layers,
                    "models_per_page": index.models_per_page,
                    "epsilon": epsilon,
                    "entries_per_segment": (
                        round(record.num_entries / segments, 1) if segments else 0.0
                    ),
                    "seek_pages": index.num_layers + 1,
                }
            )
        finally:
            ws.close()
    return rows


def collect_bloom(
    workspace: str, probes: int = DEFAULT_BLOOM_PROBES, seed: int = 0xB100
) -> List[dict]:
    """Bloom-filter geometry and false-positive rates per committed run.

    ``fpr_measured`` probes the filter with ``probes`` seeded random
    32-byte addresses (absent with overwhelming probability) — the
    empirical check on the theoretical rate.
    """
    from repro.bloomfilter import BloomFilter

    rng = random.Random(seed)
    probe_keys = [rng.getrandbits(256).to_bytes(32, "big") for _ in range(probes)]
    rows = []
    for shard, directory, level, _role, record in committed_runs(workspace):
        path = os.path.join(directory, f"{record.name}.blm")
        if not os.path.exists(path):
            continue
        with open(path, "rb") as handle:
            bloom = BloomFilter.from_bytes(handle.read())
        hits = sum(1 for key in probe_keys if bloom.may_contain(key))
        rows.append(
            {
                "shard": shard,
                "level": level,
                "run": record.name,
                "keys": bloom.count,
                "bits": bloom.num_bits,
                "hashes": bloom.num_hashes,
                "size_bytes": bloom.size_bytes(),
                "fpr_theory": round(bloom.false_positive_rate(), 6),
                "fpr_measured": round(hits / probes, 6) if probes else 0.0,
            }
        )
    return rows


def collect_wal(wal_dir: str) -> List[dict]:
    """Per-segment WAL state read directly from disk.

    Safe against a live writer: the record scanner stops at the first
    torn record, which for the active tail just means "scanned up to
    the bytes durable at read time".  The highest-numbered segment of
    each shard chain is the active one.
    """
    from repro.wal.record import RecordType, scan_records

    rows = []
    for shard in shard_dirs(wal_dir):
        directory = os.path.join(wal_dir, shard)
        segments = sorted(
            name
            for name in os.listdir(directory)
            if name.startswith("seg-") and name.endswith(".wal")
        )
        for position, segment in enumerate(segments):
            path = os.path.join(directory, segment)
            with open(path, "rb") as handle:
                data = handle.read()
            result = scan_records(data)
            puts = sum(
                1 for record in result.records if record.type == RecordType.PUTS
            )
            commits = sum(
                1 for record in result.records if record.type == RecordType.COMMIT
            )
            max_height = max(
                (record.height for record in result.records), default=0
            )
            rows.append(
                {
                    "shard": shard,
                    "segment": segment,
                    "state": "active" if position == len(segments) - 1 else "sealed",
                    "bytes": len(data),
                    "records": len(result.records),
                    "puts": puts,
                    "commits": commits,
                    "max_height": max_height,
                    "torn": bool(result.torn),
                }
            )
    return rows


#: Columns of ``repro query caches``.  The three caches' STATS sections
#: share one shape; a column a section lacks (the page cache has no
#: ``entries`` or ``capacity`` of its own) stays blank.
CACHE_COLUMNS = [
    "cache", "hits", "misses", "lookups", "hit_rate", "entries", "capacity",
    "refreshed",
]


def collect_caches(stats: dict) -> List[dict]:
    """One row per cache (read / negative / page) from a STATS snapshot."""
    sections = {
        "read": stats.get("cache"),
        "negative": stats.get("negative_cache"),
        "page": (stats.get("io") or {}).get("page_cache"),
    }
    return [
        dict(
            {column: section.get(column, "") for column in CACHE_COLUMNS},
            cache=label,
            hit_rate=round(section["hit_rate"], 4),
        )
        for label, section in sections.items()
        if section
    ]


def _compaction_rows(
    shard: str, policy: str, flushed: int, rewritten: int, levels: List[tuple]
) -> List[dict]:
    """Shared row shaping of the cold and live compaction collectors:
    one row per level plus a ``*`` summary row carrying the cumulative
    write-amplification (merge bytes over flush bytes)."""
    rows = []
    for level, runs, entries, size, level_rewritten in levels:
        rows.append(
            {
                "shard": shard,
                "level": level,
                "policy": policy,
                "runs": runs,
                "entries": entries,
                "bytes": size,
                "bytes_rewritten": level_rewritten,
                "write_amp": "",
            }
        )
    rows.append(
        {
            "shard": shard,
            "level": "*",
            "policy": policy,
            "runs": sum(row[1] for row in levels),
            "entries": sum(row[2] for row in levels),
            "bytes": flushed,
            "bytes_rewritten": rewritten,
            "write_amp": round(rewritten / flushed, 4) if flushed else 0.0,
        }
    )
    return rows


def collect_compaction(workspace: str) -> List[dict]:
    """Compaction policy and write-amp accounting from cold manifests.

    The summary row's ``bytes`` column is cumulative flush output (the
    write-amp denominator); per-level rows show the live run layout and
    the merge bytes ever written onto that level.
    """
    from repro.core.manifest import load_manifest
    from repro.core.run import RUN_SUFFIXES

    rows = []
    for shard, directory in shard_roots(workspace):
        manifest = load_manifest(directory)
        policy = manifest.compaction
        if not policy:
            policy = "leveling" if manifest.next_run_seq > 0 else "-"
        levels = []
        for level, groups in sorted(manifest.levels.items()):
            records = [
                record
                for role in sorted(groups)
                for record in groups[role]
            ]
            size = 0
            for record in records:
                for suffix in RUN_SUFFIXES:
                    path = os.path.join(directory, record.name + suffix)
                    if os.path.exists(path):
                        size += os.path.getsize(path)
            levels.append(
                (
                    level,
                    len(records),
                    sum(record.num_entries for record in records),
                    size,
                    manifest.level_bytes_rewritten.get(level, 0),
                )
            )
        rows.extend(
            _compaction_rows(
                shard,
                policy,
                manifest.bytes_flushed,
                manifest.bytes_rewritten,
                levels,
            )
        )
    return rows


def collect_compaction_live(stats: dict) -> List[dict]:
    """Compaction accounting from a live server's STATS snapshot
    (aggregated across shards by the engine)."""
    snapshot = (stats.get("engine") or {}).get("compaction")
    if not snapshot:
        return []
    levels = []
    for level, row in sorted(
        (int(level), row) for level, row in snapshot["levels"].items()
    ):
        levels.append(
            (level, row["runs"], row["entries"], row["bytes"], row["bytes_rewritten"])
        )
    return _compaction_rows(
        "-",
        snapshot["policy"],
        snapshot["bytes_flushed"],
        snapshot["bytes_rewritten"],
        levels,
    )


def collect_latency(metrics_text: str) -> List[dict]:
    """Histogram digests parsed back out of the METRICS exposition.

    One row per histogram series: the ``_count`` / ``_sum`` samples give
    count and mean, the cumulative ``_bucket`` samples give p50/p99 —
    exactly what any scraper would compute.
    """
    series = parse_exposition(metrics_text)
    rows = []
    for name in sorted(series):
        if not name.endswith("_count"):
            continue
        base = name[: -len("_count")]
        buckets = series.get(base + "_bucket")
        if not buckets:
            continue  # a counter family that happens to end in _count
        sums = {
            tuple(sorted(labels.items())): value
            for labels, value in series.get(base + "_sum", [])
        }
        for labels, count in series[name]:
            key = tuple(sorted(labels.items()))
            mine = [
                (bucket_labels, value)
                for bucket_labels, value in buckets
                if tuple(
                    sorted(
                        (k, v) for k, v in bucket_labels.items() if k != "le"
                    )
                )
                == key
            ]
            total = sums.get(key, 0.0)
            rows.append(
                {
                    "metric": base,
                    "labels": ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                    or "-",
                    "count": int(count),
                    "avg_s": round(total / count, 6) if count else 0.0,
                    "p50_s": round(quantile_from_buckets(mine, 0.5) or 0.0, 6),
                    "p99_s": round(quantile_from_buckets(mine, 0.99) or 0.0, 6),
                }
            )
    return rows


def flatten(mapping: dict) -> List[dict]:
    """A nested dict as sorted ``metric`` / ``value`` rows."""
    rows = []

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        else:
            rows.append({"metric": prefix, "value": value})

    walk("", mapping)
    return rows


def collect_audit(
    target: QueryTarget, addr_low: bytes, addr_high: bytes, limit: int
) -> List[dict]:
    """Provenance walk over the live addresses in ``[addr_low, addr_high]``.

    Scans the range for up to ``limit`` live addresses, then asks the
    full version history of each (block 0 .. the committed height).
    Live mode drives SCAN + PROV over the wire; cold mode opens the
    engine read-style under the workspace flock (committed state only —
    an unreplayed WAL tail is the server's to recover, not ours).
    """
    if target.live:
        async def run(client: Any) -> Any:
            info = await client.root()
            triples = await client.scan(addr_low, addr_high, limit=limit)
            out = []
            for addr in dict.fromkeys(addr for addr, _blk, _value in triples):
                result, _root = await client.prov(addr, 0, max(info.height, 0))
                out.append((addr, result))
            return out

        histories = target.call(run)
        return [_audit_row(addr, result) for addr, result in histories]
    from repro.cli import open_store

    workspace = target.resolve_workspace()
    with open_store(workspace, "repro query audit", replay=False) as store:
        engine = store.engine
        height = max(engine.current_blk, engine.checkpoint_blk, 0)
        triples = engine.scan(addr_low, addr_high, limit=limit)
        rows = []
        for addr in dict.fromkeys(addr for addr, _blk, _value in triples):
            result, _root = engine.prov_query_anchored(addr, 0, height)
            rows.append(_audit_row(addr, result))
        return rows


def _audit_row(addr: bytes, result: Any) -> dict:
    versions = list(result.versions)
    return {
        "addr": addr.hex(),
        "versions": len(versions),
        "first_blk": versions[0][0] if versions else "",
        "last_blk": versions[-1][0] if versions else "",
        "latest_bytes": len(versions[-1][1]) if versions else 0,
        "boundary": result.boundary_version is not None,
    }


# =============================================================================
# the click group
# =============================================================================

@click.group(name="query")
@click.option(
    "--workspace",
    "-w",
    type=click.Path(),
    default=None,
    help="cold workspace directory to inspect",
)
@click.option(
    "--server",
    "-s",
    "server_addr",
    default=None,
    metavar="HOST:PORT",
    help="live server to inspect",
)
@click.pass_context
def query_group(ctx: click.Context, workspace: Optional[str], server_addr: Optional[str]) -> None:
    """Inspect a COLE deployment: levels, indexes, blooms, WAL,
    replication, caches, latencies, and provenance audits.

    Give exactly one of --workspace (cold, file-backed) or --server
    (live).  Global options come before the subcommand:
    ``repro query -s 127.0.0.1:7407 latency -f json``.
    """
    if (workspace is None) == (server_addr is None):
        raise click.UsageError(
            "give exactly one of --workspace/-w or --server/-s"
        )
    from repro.server.protocol import parse_address

    try:
        server = parse_address(server_addr) if server_addr is not None else None
    except StorageError as exc:
        raise click.BadParameter(str(exc), param_hint="--server")
    ctx.obj = QueryTarget(workspace, server)


@query_group.command()
@format_option
@click.pass_obj
def levels(target: QueryTarget, fmt: str) -> None:
    """Runs and sizes per level per shard."""
    rows = collect_levels(target.resolve_workspace())
    emit(["shard", "level", "group", "run", "entries", "bytes"], rows, fmt)


@query_group.command()
@format_option
@click.pass_obj
def segments(target: QueryTarget, fmt: str) -> None:
    """Learned-index segment counts, epsilon, predicted seek cost."""
    rows = collect_segments(target.resolve_workspace())
    emit(
        [
            "shard", "level", "run", "entries", "segments", "layers",
            "models_per_page", "epsilon", "entries_per_segment", "seek_pages",
        ],
        rows,
        fmt,
    )


@query_group.command()
@click.option(
    "--probes",
    type=int,
    default=DEFAULT_BLOOM_PROBES,
    show_default=True,
    help="random absent-key probes for the measured FPR",
)
@format_option
@click.pass_obj
def bloom(target: QueryTarget, probes: int, fmt: str) -> None:
    """Bloom bits, hash counts, theoretical and measured FPR."""
    rows = collect_bloom(target.resolve_workspace(), probes=probes)
    emit(
        [
            "shard", "level", "run", "keys", "bits", "hashes",
            "size_bytes", "fpr_theory", "fpr_measured",
        ],
        rows,
        fmt,
    )


@query_group.command()
@format_option
@click.pass_obj
def wal(target: QueryTarget, fmt: str) -> None:
    """WAL segments: sealed/active state, record counts, torn tails; live,
    a ``*`` row totals the log and where its group fsyncs ran."""
    columns = [
        "shard", "segment", "state", "bytes", "records", "puts",
        "commits", "max_height", "torn",
    ]
    wal_stats = None
    if target.live:
        wal_stats = target.stats().get("wal")
        wal_dir = wal_stats.get("directory") if wal_stats else None
        note = "" if wal_dir else "server runs without a WAL"
    else:
        from repro.cli import WAL_DIRNAME

        wal_dir = os.path.join(target.resolve_workspace(), WAL_DIRNAME)
        note = "" if os.path.isdir(wal_dir) else f"no WAL directory at {wal_dir}"
    rows = collect_wal(wal_dir) if wal_dir else []
    if wal_stats:
        paths = ["syncs_inline", "syncs_pooled"]
        columns += paths
        rows.append({
            "shard": "*", "state": wal_stats["policy"],
            "bytes": wal_stats["bytes_appended"],
            "records": wal_stats["records_appended"],
            "puts": wal_stats["puts_appended"],
            **{path: wal_stats[path] for path in paths},
        })
    emit(columns, rows, fmt, note=note)


@query_group.command()
@format_option
@click.pass_obj
def replication(target: QueryTarget, fmt: str) -> None:
    """Replication role, lag, and subscriber state."""
    if target.live:
        section = target.stats().get("replication") or {"role": "standalone"}
        note = ""
    else:
        section = {"role": "offline"}
        note = "replication state is process state; inspect a live server"
    emit(["metric", "value"], flatten(section), fmt, note=note)


@query_group.command()
@format_option
@click.pass_obj
def compaction(target: QueryTarget, fmt: str) -> None:
    """Compaction policy, per-level layout, cumulative write-amp.

    The ``*`` row totals a shard: ``bytes`` is cumulative flush output,
    ``bytes_rewritten`` cumulative merge output, ``write_amp`` their
    ratio — the number the leveling/tiering trade-off moves.
    """
    if target.live:
        rows = collect_compaction_live(target.stats())
    else:
        rows = collect_compaction(target.resolve_workspace())
    emit(
        [
            "shard", "level", "policy", "runs", "entries", "bytes",
            "bytes_rewritten", "write_amp",
        ],
        rows,
        fmt,
    )


@query_group.command()
@format_option
@click.pass_obj
def caches(target: QueryTarget, fmt: str) -> None:
    """Read / negative / page cache hit rates and occupancy."""
    if target.live:
        rows = collect_caches(target.stats())
        note = ""
    else:
        rows = []
        note = "cache state is process state; inspect a live server"
    emit(CACHE_COLUMNS, rows, fmt, note=note)


@query_group.command()
@format_option
@click.pass_obj
def reads(target: QueryTarget, fmt: str) -> None:
    """Engine point reads by path: inline (event loop) / pooled / would_block."""
    if target.live:
        section, note = target.stats().get("reads") or {}, ""
    else:
        section, note = {}, "read paths are process state; inspect a live server"
    emit(["metric", "value"], flatten(section), fmt, note=note)


@query_group.command()
@format_option
@click.pass_obj
def latency(target: QueryTarget, fmt: str) -> None:
    """Per-op latency histograms (parsed from METRICS exposition)."""
    if target.live:
        rows = collect_latency(target.metrics_text())
        note = ""
    else:
        rows = []
        note = "latency histograms are process state; inspect a live server"
    emit(
        ["metric", "labels", "count", "avg_s", "p50_s", "p99_s"],
        rows,
        fmt,
        note=note,
    )


@query_group.command()
@click.argument("addr_low")
@click.argument("addr_high")
@click.option(
    "--limit",
    type=int,
    default=32,
    show_default=True,
    help="max live addresses audited in the range",
)
@click.option(
    "--addr-size",
    type=int,
    default=32,
    show_default=True,
    help="address width in bytes (short hex args are padded to this)",
)
@format_option
@click.pass_obj
def audit(
    target: QueryTarget,
    addr_low: str,
    addr_high: str,
    limit: int,
    addr_size: int,
    fmt: str,
) -> None:
    """Provenance walk over ADDR_LOW..ADDR_HIGH (hex; prefixes allowed).

    For each live address in the range (up to --limit): its version
    count and first/last change heights, proven against the committed
    state root.
    """
    low = parse_addr_bound(addr_low, addr_size, b"\x00")
    high = parse_addr_bound(addr_high, addr_size, b"\xff")
    rows = collect_audit(target, low, high, limit)
    emit(
        ["addr", "versions", "first_blk", "last_blk", "latest_bytes", "boundary"],
        rows,
        fmt,
    )
