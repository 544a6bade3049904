"""METRICS is a rendering of STATS through one table.

Every counter and gauge a server exports is a row of
``repro.server.server.METRICS_TABLE`` read off one STATS snapshot, so
the two reports cannot disagree about which facts exist.  For each
serving role — primary without a WAL, primary with a WAL, replica —
under one fixed load:

* every counter / gauge series in METRICS is exactly the set the table
  resolves against a STATS snapshot taken right after it, with the same
  values — no exemptions;
* no table row names a histogram family: those are the registry's, and
  STATS ``latency`` reports them;
* the ``# HELP`` / ``# TYPE`` lines and the sorted ``(name, labels)``
  set of counter and gauge series match ``tests/fixtures/metrics_series.json``,
  which this file's ``__main__`` recorded against commit ``aa4aa94``
  (the last tree whose exposition was written out by hand), less the
  in-process sharded engine's role and its ``repro_engine_shards``
  gauge, the ``cache="page"`` series of the engine page cache, the
  cluster shard's role, its ``repro_cluster_*`` rows and the
  ``op="cluster"`` series, and the retired opcode's ``op="admin"``
  series, all since removed; and with the merge scheduler's own byte
  counters (``repro_merge_bytes_rewritten_total``,
  ``repro_compaction_bytes_total``) replaced by the engine's
  ``repro_compaction_bytes_flushed_total`` and
  ``repro_compaction_bytes_rewritten_total`` rows, the latter with no
  ``level="1"`` series (level 1 only receives flushes, so it was always 0):

      PYTHONPATH=<aa4aa94 checkout>/src python tests/test_metrics_table.py
"""

import asyncio
import contextlib
import json
import os
import sys
from pathlib import Path

import pytest
from exposition import parse

from repro.common.params import ColeParams
from repro.core import Cole
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.server.server import LATENCY_FAMILIES, METRICS_TABLE, stats_leaves
from repro.wal import WriteAheadLog

FIXTURE = Path(__file__).parent / "fixtures" / "metrics_series.json"
ROLES = ("primary", "primary_wal", "replica")

MEM = 32
WRITES = 120
PARAMS = ColeParams(mem_capacity=MEM, size_ratio=2)
#: Group commits by size (8 puts), never by timer: block boundaries still
#: vary run to run, but which flushes, merges and IO categories happen
#: does not, nor does anything tick between two scrapes.
CONFIG = ServerConfig(batch_max_puts=8, batch_max_delay=60.0)


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 8


def value_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 10


async def drive(writer: ServerClient, reader: ServerClient) -> None:
    """The fixed load: puts, a flush, then a bit of every read."""
    for n in range(WRITES):
        await writer.put(addr_of(n), value_of(n))
    await writer.flush()
    await reader.get(addr_of(0))
    await reader.get(addr_of(0))  # read-cache hit
    await reader.get(addr_of(10_000))  # negative
    await reader.get_at(addr_of(1), 1)
    await reader.scan(addr_of(0), addr_of(WRITES), limit=5)
    await reader.multi_get([addr_of(2), addr_of(3)])


async def caught_up(replica: ServerClient, height: int) -> None:
    for _ in range(500):
        if (await replica.root()).height >= height:
            return
        await asyncio.sleep(0.02)
    raise AssertionError("replica never caught up")


@contextlib.contextmanager
def loaded(role: str, tmp_path):
    """Run ``role`` under the fixed load; yields the scraped server's
    ``(host, port)`` once it is quiet."""
    directory = str(tmp_path / role)
    with contextlib.ExitStack() as stack:
        engine = Cole(directory, PARAMS)
        stack.callback(engine.close)
        wal = None
        if role in ("primary_wal", "replica"):
            wal = WriteAheadLog(os.path.join(directory, "wal"))
            stack.callback(wal.close)
        primary = stack.enter_context(ServerThread(engine, config=CONFIG, wal=wal))
        target = writer = primary.start()
        if role == "replica":
            # Its own directory: the primary's is ``tmp_path / "replica"``.
            replica_engine = Cole(str(tmp_path / "replica-follower"), PARAMS)
            stack.callback(replica_engine.close)
            replica = stack.enter_context(
                ServerThread(replica_engine, replica_of=writer)
            )
            target = replica.start()
        asyncio.run(_load(writer, target))
        yield target


async def _load(writer_addr, reader_addr) -> None:
    async with ServerClient(*writer_addr) as writer, \
            ServerClient(*reader_addr) as reader:
        await drive(writer, reader)
        if reader_addr != writer_addr:
            await caught_up(reader, (await writer.root()).height)


async def scrape(target):
    """METRICS, then STATS on the same connection, nothing in between."""
    async with ServerClient(*target) as client:
        text = await client.metrics()
        return text, await client.stats()


def scalar_families(text: str) -> dict:
    """``{name: kind}`` of the counter and gauge families of one exposition."""
    return {
        name: kind
        for _, _, name, kind in (
            line.split() for line in text.splitlines() if line.startswith("# TYPE ")
        )
        if kind in ("counter", "gauge")
    }


def counter_gauge_series(text: str) -> dict:
    """``{"headers": [...], "series": ['name{label="value",...}', ...]}``
    of the counter and gauge families of one exposition, sorted."""
    scalar = scalar_families(text)
    headers = [
        line for line in text.splitlines()
        if line.startswith("#") and line.split()[2] in scalar
    ]
    series = sorted(
        name + ("{%s}" % ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
                if labels else "")
        for name, samples in parse(text).items()
        if name in scalar
        for labels, _ in samples
    )
    return {"headers": headers, "series": series}


def record_all(tmp_path) -> dict:
    recorded = {}
    for role in ROLES:
        with loaded(role, tmp_path) as target:
            text, _ = asyncio.run(scrape(target))
        recorded[role] = counter_gauge_series(text)
    return recorded


@pytest.fixture(scope="module")
def scrapes(tmp_path_factory):
    """``{role: (METRICS text, STATS)}``, each role loaded once."""
    scraped = {}
    for role in ROLES:
        with loaded(role, tmp_path_factory.mktemp(role)) as target:
            scraped[role] = asyncio.run(scrape(target))
    return scraped


@pytest.mark.parametrize("role", ROLES)
def test_metrics_render_one_stats_snapshot(role, scrapes):
    text, stats = scrapes[role]
    # The STATS request counted itself after METRICS' snapshot was taken.
    stats = {**stats, "ops": {**stats["ops"], "stats": stats["ops"]["stats"] - 1}}

    expected = {}
    for name, kind, _help, path, labels in METRICS_TABLE:
        for key, value in stats_leaves(stats, path):
            series = tuple(sorted(
                (label, key if fill == "*" else fill)
                for label, fill in labels.items()
            ))
            expected[(name, series)] = (kind, float(value))

    kinds = scalar_families(text)
    exposed = {
        (name, tuple(sorted(labels.items()))): (kinds[name], value)
        for name, samples in parse(text).items()
        if name in kinds
        for labels, value in samples
    }
    assert exposed == expected
    # A check the table cannot pass by construction: each cache's rate
    # is its hits over its lookups.
    for cache in ("read", "negative"):
        labels = (("cache", cache),)
        hits = exposed[("repro_cache_hits_total", labels)][1]
        lookups = exposed[("repro_cache_lookups_total", labels)][1]
        rate = exposed[("repro_cache_hit_rate", labels)][1]
        assert rate == (hits / lookups if lookups else 0.0)
    assert exposed[("repro_cache_hits_total", (("cache", "read"),))][1] > 0
    # The load flushed L0 at least once: the engine's write accounting
    # reaches METRICS through STATS.
    assert exposed[("repro_compaction_bytes_flushed_total", ())][1] > 0

    golden = json.loads(FIXTURE.read_text())[role]
    assert counter_gauge_series(text) == golden


def test_no_table_name_is_a_histogram_family(scrapes):
    table = {name for name, *_ in METRICS_TABLE}
    families = {family for family, _, _ in LATENCY_FAMILIES}
    assert not table & families
    for text, stats in scrapes.values():
        exposed = {
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ") and line.endswith(" histogram")
        }
        # Every histogram the registry exposes is a STATS latency family.
        assert exposed and exposed <= families
        assert not table & exposed
        assert scalar_families(text).keys() <= table


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        recorded = record_all(Path(scratch))
    with open(FIXTURE, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
