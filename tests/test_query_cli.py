"""End-to-end tests for the ``repro query`` inspection CLI.

Every subcommand must answer against **both** a cold workspace and a
live server, in all three output formats — that is the CLI's contract.
The cold fixture is produced by a real served run (WAL and all), so the
artifacts inspected are exactly what a deployment leaves on disk.
"""

import asyncio
import csv
import hashlib
import io
import json
import os

import pytest
from exposition import parse

from repro.cli import main
from repro.common.params import ColeParams
from repro.core import Cole
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.wal import WriteAheadLog

# The CLI is click-based.
pytest.importorskip("click")

# Default system geometry (32-byte addresses): what `repro serve` uses,
# and what `query audit` pads hex prefixes to by default.
PARAMS = ColeParams(mem_capacity=64, size_ratio=2, async_merge=True)

SUBCOMMANDS = (
    ["levels"],
    ["segments"],
    ["bloom", "--probes", "32"],
    ["wal"],
    ["replication"],
    ["caches"],
    ["reads"],
    ["compaction"],
    ["latency"],
    ["audit", "00", "ff", "--limit", "3"],
)


def addr_of(n: int) -> bytes:
    return hashlib.sha256(f"key-{n}".encode()).digest()


def value_of(n: int) -> bytes:
    return f"value-{n}".encode().ljust(40, b".")[:40]


async def drive_load(host, port, writes=160):
    """A bit of everything: puts, commits, hot/negative reads, scans."""
    async with ServerClient(host, port) as client:
        for n in range(writes):
            await client.put(addr_of(n), value_of(n))
        await client.flush()
        for n in range(20):
            await client.get(addr_of(n))
            await client.get(addr_of(n))
        await client.scan(b"\x00" * 32, b"\xff" * 32, limit=8)
        await client.multi_get([addr_of(n) for n in range(8)])


@pytest.fixture(scope="module")
def cold_workspace(tmp_path_factory):
    """A workspace left behind by a real served (WAL-enabled) run."""
    directory = str(tmp_path_factory.mktemp("query") / "ws")
    engine = Cole(directory, PARAMS)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    with ServerThread(
        engine, config=ServerConfig(batch_max_puts=32, batch_max_delay=0.005),
        wal=wal,
    ) as thread:
        asyncio.run(drive_load(*thread.start()))
    wal.close()
    engine.close()
    return directory


def run_cli(args, capsys):
    code = main(["query"] + args)
    return code, capsys.readouterr().out


# =============================================================================
# cold workspace
# =============================================================================

@pytest.mark.parametrize(
    "subcommand", SUBCOMMANDS, ids=lambda s: s[0]
)
def test_cold_subcommands_exit_zero(cold_workspace, capsys, subcommand):
    code, out = run_cli(["-w", cold_workspace] + subcommand, capsys)
    assert code == 0
    assert out  # at least a header line


def test_cold_levels_reports_committed_runs(cold_workspace, capsys):
    code, out = run_cli(["-w", cold_workspace, "levels", "-f", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows, "a loaded workspace has committed runs"
    for row in rows:
        assert row["entries"] > 0
        files = [row[f"{kind}_bytes"] for kind in ("val", "idx", "mrk", "blm")]
        assert row["bytes"] == sum(files) and min(files) > 0
        assert row["run"]


def test_cold_segments_reports_index_geometry(cold_workspace, capsys):
    code, out = run_cli(
        ["-w", cold_workspace, "segments", "-f", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert rows
    for row in rows:
        assert row["segments"] >= 1
        assert row["layers"] >= 1
        assert row["epsilon"] == row["models_per_page"] // 2
        assert row["seek_pages"] == row["layers"] + 1


def test_cold_bloom_fpr_within_reason(cold_workspace, capsys):
    code, out = run_cli(
        ["-w", cold_workspace, "bloom", "--probes", "256", "-f", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert rows
    for row in rows:
        assert row["keys"] > 0
        assert 0.0 <= row["fpr_theory"] < 0.5
        assert 0.0 <= row["fpr_measured"] < 0.5


def test_cold_wal_reports_segments(cold_workspace, capsys):
    code, out = run_cli(["-w", cold_workspace, "wal", "-f", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows, "the served run left WAL segments behind"
    assert rows[-1]["state"] == "active"
    assert sum(row["records"] for row in rows) > 0
    assert any(row["commits"] > 0 for row in rows)
    assert not any(row["torn"] for row in rows)


def test_cold_compaction_reports_write_amp(cold_workspace, capsys):
    code, out = run_cli(
        ["-w", cold_workspace, "compaction", "-f", "json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    summary = [row for row in rows if row["level"] == "*"]
    assert len(summary) == 1
    assert "policy" not in summary[0]  # one policy: nothing to report
    assert summary[0]["bytes"] > 0  # cumulative flush output
    assert isinstance(summary[0]["write_amp"], float)
    for row in rows:
        if row["level"] != "*":
            assert row["runs"] > 0
            assert row["entries"] > 0


def test_cold_audit_walks_provenance(cold_workspace, capsys):
    code, out = run_cli(
        ["-w", cold_workspace, "audit", "00", "ff", "--limit", "4",
         "-f", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert 0 < len(rows) <= 4
    for row in rows:
        assert len(bytes.fromhex(row["addr"])) == 32
        assert row["versions"] >= 1
        assert row["first_blk"] <= row["last_blk"]


@pytest.mark.parametrize("target", ["cold", "live"])
def test_audit_rejects_a_tampered_proof(request, monkeypatch, capsys, target):
    """Every history the audit reports is verified: a forged version
    value fails against the anchored root and the verb exits 1."""
    from repro.core.proofs import ProvenanceResult

    args = (["-w", request.getfixturevalue("cold_workspace")] if target == "cold"
            else ["-s", request.getfixturevalue("live_server")])
    real = Cole.prov_query_anchored

    def forged(self, addr, blk_low, blk_high):
        result, root = real(self, addr, blk_low, blk_high)
        (blk, value), *rest = result.versions
        flipped = bytes(byte ^ 0xFF for byte in value)
        return ProvenanceResult([(blk, flipped), *rest], result.boundary_version,
                                result.proof), root

    monkeypatch.setattr(Cole, "prov_query_anchored", forged)
    code = main(["query", *args, "audit", "00", "ff", "--limit", "2"])
    assert code == 1
    assert "Error: VerificationError: " in capsys.readouterr().err


def test_cold_csv_format_parses(cold_workspace, capsys):
    code, out = run_cli(["-w", cold_workspace, "levels", "-f", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["level", "group", "run"]
    assert len(rows) > 1


# =============================================================================
# live server
# =============================================================================

@pytest.fixture(scope="module")
def live_server(cold_workspace):
    """The cold workspace, re-served (recovery included)."""
    engine = Cole(cold_workspace, PARAMS)
    wal = WriteAheadLog(os.path.join(cold_workspace, "wal"))
    with ServerThread(
        engine, config=ServerConfig(batch_max_puts=32, batch_max_delay=0.005),
        wal=wal,
    ) as thread:
        host, port = thread.start()
        asyncio.run(drive_load(host, port, writes=40))
        yield f"{host}:{port}"
    wal.close()
    engine.close()


@pytest.mark.parametrize(
    "subcommand", SUBCOMMANDS, ids=lambda s: s[0]
)
def test_live_subcommands_exit_zero(live_server, capsys, subcommand):
    code, out = run_cli(["-s", live_server] + subcommand, capsys)
    assert code == 0
    assert out


def test_live_latency_reports_per_op_histograms(live_server, capsys):
    code, out = run_cli(["-s", live_server, "latency", "-f", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    by_labels = {
        (row["metric"], row["labels"]): row for row in rows
    }
    put = by_labels[("repro_op_latency_seconds", "op=put")]
    assert put["count"] > 0
    assert put["p50_s"] > 0
    assert put["p99_s"] >= put["p50_s"]
    assert ("repro_wal_fsync_seconds", "-") in by_labels
    # Every pooled call (the group commits, here) timed its hand-off.
    assert by_labels[("repro_executor_hop_seconds", "-")]["count"] > 0


def test_live_latency_rows_are_the_stats_latency_section(live_server, capsys, monkeypatch):
    """``query latency`` renders the STATS snapshot it fetched: one row
    per series of every family, its count / avg / p50 / p99 as STATS has
    them."""
    from repro.obs.query import QueryTarget
    from repro.server.server import LATENCY_FAMILIES

    fetched = []
    real = QueryTarget.stats

    def recorded(self):
        fetched.append(real(self))
        return fetched[-1]

    monkeypatch.setattr(QueryTarget, "stats", recorded)
    code, out = run_cli(["-s", live_server, "latency", "-f", "json"], capsys)
    assert code == 0
    stats = fetched[0]  # cached: every call returns this one snapshot
    rows = {(row["metric"], row["labels"]): row for row in json.loads(out)}

    expected = {}
    for family, key, label in LATENCY_FAMILIES:
        section = stats["latency"].get(key)
        if section is None:
            continue
        series = section.items() if label else [(None, section)]
        for value, summary in series:
            expected[(family, f"{label}={value}" if label else "-")] = summary
    assert rows.keys() == expected.keys()
    assert ("repro_executor_hop_seconds", "-") in rows
    for series, summary in expected.items():
        row = rows[series]
        assert row["count"] == summary["count"]
        for column, field in (("avg_s", "avg"), ("p50_s", "p50"), ("p99_s", "p99")):
            assert row[column] == round(summary[field], 6), (series, column)


def test_live_caches_reports_hit_rates(live_server, capsys):
    code, out = run_cli(["-s", live_server, "caches", "-f", "json"], capsys)
    assert code == 0
    rows = {row["cache"]: row for row in json.loads(out)}
    assert rows["read"]["hits"] > 0
    assert rows["read"]["lookups"] == rows["read"]["hits"] + rows["read"]["misses"]
    assert isinstance(rows["read"]["refreshed"], int)
    assert "negative" in rows


def test_live_caches_rows_share_one_shape(tmp_path, capsys):
    """One row per serving cache, each with every column; a column its
    STATS section lacks (the negative cache counts no ``refreshed``)
    stays blank.  The engine has no page cache, so no row names one,
    while STATS ``io.page_cache`` keeps its keys at zero."""
    from repro.obs.query import CACHE_COLUMNS

    engine = Cole(str(tmp_path / "ws"), ColeParams(mem_capacity=64))

    async def load(host, port):
        async with ServerClient(host, port) as client:
            await client.multi_put([(addr_of(n), value_of(n)) for n in range(200)])
            await client.flush()
            for n in range(200):  # distinct keys: every GET reaches the engine
                await client.get(addr_of(n))
            return (await client.stats())["io"]["page_cache"]

    with ServerThread(engine) as thread:
        host, port = thread.start()
        page_cache = asyncio.run(load(host, port))
        code, out = run_cli(["-s", f"{host}:{port}", "caches", "-f", "json"], capsys)
    engine.close()
    assert code == 0
    rows = {row["cache"]: row for row in json.loads(out)}
    assert set(rows) == {"read", "negative"}
    assert page_cache["lookups"] == page_cache["hits"] == 0
    assert rows["negative"]["refreshed"] == ""
    for row in rows.values():
        assert set(row) == set(CACHE_COLUMNS)
        assert row["lookups"] == row["hits"] + row["misses"]


def test_live_reads_reports_the_inline_and_fallback_paths(live_server, capsys):
    code, out = run_cli(["-s", live_server, "reads", "-f", "json"], capsys)
    assert code == 0
    rows = {row["metric"]: row["value"] for row in json.loads(out)}
    assert set(rows) == {"inline", "pooled", "would_block"}
    assert rows["inline"] > 0  # the load's engine GETs ran on the event loop


def test_live_compaction_matches_stats(live_server, capsys):
    code, out = run_cli(["-s", live_server, "compaction", "-f", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    summary = [row for row in rows if row["level"] == "*"]
    assert len(summary) == 1
    assert summary[0]["bytes"] > 0


def test_live_wal_and_replication(live_server, capsys):
    code, out = run_cli(["-s", live_server, "wal", "-f", "json"], capsys)
    assert code == 0
    *segments, total = json.loads(out)
    assert segments, "live server reports its WAL segments"
    # The closing row says where the group fsyncs ran.
    assert total["segment"] == "*"
    assert total["syncs_inline"] + total["syncs_pooled"] > 0
    code, out = run_cli(
        ["-s", live_server, "replication", "-f", "json"], capsys
    )
    assert code == 0
    rows = {row["metric"]: row["value"] for row in json.loads(out)}
    assert rows["role"] == "primary"


def test_metrics_op_round_trips(live_server):
    """Op.METRICS returns parseable Prometheus text with per-op latency
    histograms — the scrape contract."""
    host, _, port = live_server.rpartition(":")

    async def scrape():
        async with ServerClient(host, int(port)) as client:
            return await client.metrics()

    text = asyncio.run(scrape())
    series = parse(text)
    ops = {
        labels["op"]
        for labels, _ in series["repro_ops_total"]
    }
    assert {"put", "get", "scan", "multi_get"} <= ops
    latency_counts = {
        labels["op"]: value
        for labels, value in series["repro_op_latency_seconds_count"]
    }
    assert latency_counts["put"] > 0
    # Cumulative buckets end at +Inf == count.
    inf = [
        value
        for labels, value in series["repro_op_latency_seconds_bucket"]
        if labels["op"] == "put" and labels["le"] == "+Inf"
    ]
    assert inf == [latency_counts["put"]]
    assert series["repro_commits_total"][0][1] > 0
    assert series["repro_wal_records_appended_total"][0][1] > 0
    reads = {labels["path"]: value for labels, value in series["repro_engine_reads_total"]}
    assert set(reads) == {"inline", "pooled", "would_block"} and reads["inline"] > 0
    assert series["repro_cache_refreshed_total"][0][1] >= 0


# =============================================================================
# argument handling
# =============================================================================

def test_query_requires_exactly_one_target(cold_workspace, capsys):
    assert main(["query", "levels"]) == 2
    assert main(
        ["query", "-w", cold_workspace, "-s", "127.0.0.1:1", "levels"]
    ) == 2


def test_query_bad_hex_is_a_clean_error(cold_workspace, capsys):
    code = main(["query", "-w", cold_workspace, "audit", "zz", "ff"])
    assert code == 1
    assert "ValueError" in capsys.readouterr().err


def test_query_missing_workspace_is_a_clean_error(tmp_path, capsys):
    code = main(["query", "-w", str(tmp_path / "nope"), "levels"])
    assert code == 0  # empty manifest: no runs, not an error
    out = capsys.readouterr().out
    assert "level" in out
