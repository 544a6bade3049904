"""The WAL retires what the runs hold.

A WAL segment lives from one engine checkpoint advance to the next:
``Run.build`` fsyncs a run's four files before any manifest names it, so
the batcher's pooled task lets ``WriteAheadLog.truncate`` delete the
segments the checkpoint covers.  These tests pin the order (no manifest,
with or without a server, names a run whose files are not fsynced; no
segment is unlinked before every file of every run of the covering
manifest is fsynced), the retention (each segment ends at the commit
that advanced the checkpoint, so a few checkpoint intervals of WAL, not
the whole history), the crash round trip, a snapshot racing a
truncation, and a replica subscribing while a retirement is in flight.
"""

import asyncio
import os

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, storage
from repro.core.manifest import load_manifest
from repro.core.run import RUN_SUFFIXES
from repro.replication import ReplicationHub
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.server.batcher import WriteBatcher
from repro.wal import (
    WriteAheadLog,
    replay_wal,
    restore_store,
    scan_records,
    snapshot_store,
    verify_snapshot,
)

PER_BLOCK = 16


def params(async_merge):
    return ColeParams(
        system=SystemParams(addr_size=20, value_size=24),
        mem_capacity=64,
        size_ratio=2,
        async_merge=async_merge,
    )


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 6


def block_items(blk):
    """``PER_BLOCK`` distinct addresses out of 96 recurring ones."""
    return sorted(
        {addr_of((blk * 7 + n) % 96): value_of(blk * 100 + n) for n in range(PER_BLOCK)}.items()
    )


async def run_now(fn, *args):
    """The batcher's executor, inline: every step runs in program order."""
    return fn(*args)


async def settle():
    """Let every task the batcher spawned (its WAL retirements) finish."""
    current = asyncio.current_task()
    await asyncio.gather(*[task for task in asyncio.all_tasks() if task is not current])


def open_store(directory, async_merge=False, **wal_options):
    engine = Cole(directory, params(async_merge))
    wal = WriteAheadLog(os.path.join(directory, "wal"), **wal_options)
    return engine, wal


async def commit_blocks(batcher, wal, blocks, on_flush=None):
    """``blocks`` group commits of one ``block_items`` batch each; the
    WAL is synced after each, as the server's group fsync would."""
    for _ in range(blocks):
        batcher.put_batch(block_items(batcher.stats()["open_height"]))
        await batcher.flush()
        wal.sync()
        await settle()
        if on_flush is not None:
            on_flush()


def commit_direct(engine, wal, blk):
    """One block through the engine and the WAL, as the batcher's pooled
    commit does, without the batcher."""
    items = block_items(blk)
    engine.begin_block(blk)
    wal.append_puts(items, blk)
    engine.put_many(items)
    wal.append_commit(blk, bytes(engine.commit_block()))


def segment_files(wal):
    return sorted(name for name in os.listdir(wal.directory) if name.endswith(".wal"))


def inode(path):
    return os.stat(path).st_ino


@pytest.mark.parametrize("async_merge", [False, True], ids=["cole", "cole-star"])
def test_no_manifest_names_a_run_whose_files_are_not_fsynced(tmp_path, monkeypatch, async_merge):
    """An engine with no server: every manifest it publishes — after a
    COLE merge that deletes its inputs, after a COLE* landing — names
    only runs whose four files were fsynced, so recovery, which deletes
    every file the manifest does not name, never keeps a lost run."""
    directory = str(tmp_path / "ws")
    engine = Cole(directory, params(async_merge))
    fsynced = set()
    published = []  # (run names, files not fsynced) of each manifest
    real_fsync, real_save = os.fsync, storage.save_manifest

    def recording_fsync(fd):
        real_fsync(fd)
        fsynced.add(os.fstat(fd).st_ino)

    def checked_save(root, manifest):
        names = {
            record.name
            for groups in manifest.levels.values()
            for records in groups.values()
            for record in records
        }
        unsynced = [name + suffix for name in sorted(names) for suffix in RUN_SUFFIXES
                    if inode(os.path.join(root, name + suffix)) not in fsynced]
        published.append((names, unsynced))
        real_save(root, manifest)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(storage, "save_manifest", checked_save)
    for blk in range(1, 41):
        engine.begin_block(blk)
        engine.put_many(block_items(blk))
        engine.commit_block()
    on_disk = set(os.listdir(directory))
    engine.close()
    named = set().union(*(names for names, _ in published))
    merged_away = named - published[-1][0]
    # A merge landed below level 1, and its inputs' files are gone.
    assert any(not name.startswith("L1_") for name in named)
    assert merged_away and not {
        name + suffix for name in merged_away for suffix in RUN_SUFFIXES
    } & on_disk
    assert [unsynced for _, unsynced in published if unsynced] == []


@pytest.mark.parametrize("async_merge", [False, True], ids=["cole", "cole-star"])
def test_no_segment_is_unlinked_before_the_runs_covering_it_are_fsynced(
    tmp_path, monkeypatch, async_merge
):
    directory = str(tmp_path / "ws")
    engine, wal = open_store(directory, async_merge, segment_max_bytes=1024)
    fsynced = set()
    removals = []
    real_fsync, real_remove = os.fsync, os.remove

    def recording_fsync(fd):
        real_fsync(fd)
        fsynced.add(os.fstat(fd).st_ino)

    def checked_remove(path):
        if path.endswith(".wal"):
            manifest = load_manifest(directory)
            files = [
                record.name + suffix
                for groups in manifest.levels.values()
                for records in groups.values()
                for record in records
                for suffix in RUN_SUFFIXES
            ]
            with open(path, "rb") as handle:
                heights = [record.height for record in scan_records(handle.read()).records]
            removals.append({
                "segment": os.path.basename(path),
                "unsynced": [name for name in files
                             if inode(os.path.join(directory, name)) not in fsynced],
                "above_checkpoint": [h for h in heights if h > manifest.checkpoint_blk],
            })
        real_remove(path)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr("repro.wal.log.os.remove", checked_remove)

    async def scenario():
        batcher = WriteBatcher(engine, max_delay=60.0, run_in_executor=run_now, wal=wal)
        await commit_blocks(batcher, wal, 30)

    asyncio.run(scenario())
    monkeypatch.undo()
    wal.close()
    engine.close()
    assert len(removals) >= 3
    assert [removal for removal in removals if removal["unsynced"]] == []
    assert [removal for removal in removals if removal["above_checkpoint"]] == []


def test_the_live_wal_holds_a_few_checkpoint_intervals(tmp_path):
    engine, wal = open_store(str(tmp_path / "ws"))
    advances = []  # wal.bytes_appended at each checkpoint advance

    def note_checkpoint():
        if engine.checkpoint_blk > (advances[-1][0] if advances else -1):
            advances.append((engine.checkpoint_blk, wal.bytes_appended))

    async def scenario():
        batcher = WriteBatcher(engine, max_delay=60.0, run_in_executor=run_now, wal=wal)
        await commit_blocks(batcher, wal, 30, on_flush=note_checkpoint)

    asyncio.run(scenario())
    live_bytes = sum(os.path.getsize(os.path.join(wal.directory, name)) for name in segment_files(wal))
    intervals = [later[1] - earlier[1] for earlier, later in zip(advances, advances[1:])]
    live_segments = wal.live_segments()
    truncated = wal.truncated_segments
    wal.close()
    engine.close()
    assert len(advances) >= 6
    assert live_segments <= 3
    assert truncated >= len(advances) - 2
    assert live_bytes <= 3 * max(intervals), (live_bytes, intervals)


def test_each_segment_ends_at_the_commit_that_advanced_the_checkpoint(tmp_path):
    """The commit that advances the checkpoint seals the active segment,
    so once the next advance's retirement ran the live WAL holds only
    heights above the previous advance — under COLE* too, whose
    checkpoint lags one flush behind the commit that advanced it."""
    engine, wal = open_store(str(tmp_path / "ws"), async_merge=True)
    advances = []  # (checkpoint, committed height) at each advance
    oldest_live = []  # (previous advance's height, lowest live height)

    def note_checkpoint():
        if engine.checkpoint_blk > (advances[-1][0] if advances else -1):
            advances.append((engine.checkpoint_blk, engine.current_blk))
            heights = [record.height for record in wal.scan()]
            if len(advances) > 1 and heights:
                oldest_live.append((advances[-2][1], min(heights)))

    async def scenario():
        batcher = WriteBatcher(engine, max_delay=60.0, run_in_executor=run_now, wal=wal)
        await commit_blocks(batcher, wal, 30, on_flush=note_checkpoint)

    asyncio.run(scenario())
    wal.close()
    engine.close()
    assert len(oldest_live) >= 4
    assert [(previous, lowest) for previous, lowest in oldest_live if lowest <= previous] == []


def abandon(engine, wal):
    """A process death: the in-memory level is lost, the files stay."""
    engine.wait_for_merges()
    engine.scheduler.close()
    engine.workspace.close()
    wal.close()


@pytest.mark.parametrize("async_merge", [False, True], ids=["cole", "cole-star"])
def test_a_crash_after_retirements_recovers_the_oracle_root(tmp_path, async_merge):
    directory = str(tmp_path / "ws")
    engine, wal = open_store(directory, async_merge)
    oracle = Cole(str(tmp_path / "oracle"), params(async_merge))

    def oracle_block(blk):
        oracle.begin_block(blk)
        oracle.put_many(block_items(blk))
        oracle.commit_block()

    async def scenario():
        batcher = WriteBatcher(engine, max_delay=60.0, run_in_executor=run_now, wal=wal)
        await commit_blocks(batcher, wal, 30)
        # The last batch is logged and synced but never committed.
        batcher.put_batch(block_items(batcher.stats()["open_height"]))
        wal.sync()
        return batcher.stats()["open_height"]

    last = asyncio.run(scenario())
    assert wal.truncated_segments >= 3
    abandon(engine, wal)
    for blk in range(1, last + 1):
        oracle_block(blk)

    recovered, wal = open_store(directory, async_merge)
    stats = replay_wal(recovered, wal)
    assert stats.last_height == last
    assert recovered.root_digest() == oracle.root_digest()
    for addr, value in block_items(last):
        assert recovered.get(addr) == value
    wal.close()
    recovered.close()
    oracle.close()


def test_a_snapshot_skips_a_segment_truncation_deleted_after_listing_it(tmp_path, monkeypatch):
    directory = str(tmp_path / "ws")
    engine, wal = open_store(directory, segment_max_bytes=1024)
    for blk in range(1, 21):
        commit_direct(engine, wal, blk)
    wal.sync()
    listed, deleted = [], []
    real_live_files = wal.live_files

    def live_files_then_truncate():
        files = real_live_files()
        listed.extend(files)
        # The batcher's pooled truncation does not take the gate.
        deleted.append(wal.truncate(engine.checkpoint_blk))
        return files

    monkeypatch.setattr(wal, "live_files", live_files_then_truncate)
    snap = str(tmp_path / "snap")
    meta = snapshot_store(engine, snap, wal=wal)
    live_root = engine.root_digest()
    wal.close()
    engine.close()
    assert deleted[0] > 0 and len(listed) > deleted[0]
    assert meta["root_digest"] == live_root.hex()
    verify_snapshot(snap)
    dest = str(tmp_path / "restored")
    restore_store(snap, dest)
    restored, wal = open_store(dest)
    replay_wal(restored, wal)
    assert restored.root_digest() == live_root
    wal.close()
    restored.close()


def test_a_served_store_retires_its_wal_and_recovers_its_root(tmp_path):
    """Through the real server — retirements on the pool beside commits
    and merges — the default 4 MiB segments still end at checkpoints."""
    directory = str(tmp_path / "ws")
    engine, wal = open_store(directory, async_merge=True)
    config = ServerConfig(batch_max_puts=16, batch_max_delay=60.0)

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            for round_no in range(20):
                for n in range(40):
                    await client.put(addr_of(n), value_of(round_no * 100 + n))
                await client.flush()
            return await client.stats()

    with ServerThread(engine, config=config, wal=wal) as thread:
        stats = asyncio.run(scenario(*thread.start()))
    live_root = engine.root_digest()
    assert stats["wal"]["truncated_segments"] >= 3
    assert wal.live_segments() <= 3
    abandon(engine, wal)
    recovered, wal = open_store(directory, async_merge=True)
    replay_wal(recovered, wal)
    assert recovered.root_digest() == live_root
    wal.close()
    recovered.close()


def test_a_subscriber_registering_mid_retirement_keeps_every_promised_height(
    tmp_path, monkeypatch
):
    """The retirement task deletes up to the checkpoint it was scheduled
    at, not a newer one a cascade landed before its delete ran: a replica
    that passed ``check_start`` against the first was promised every
    height above it."""
    engine, wal = open_store(str(tmp_path / "ws"), segment_max_bytes=1024)
    hub = ReplicationHub(engine, wal)
    batcher = WriteBatcher(engine, max_delay=60.0, run_in_executor=run_now, wal=wal, hub=hub)
    real_truncate = wal.truncate
    promised = []  # (start, upto) of the one subscriber

    def late_truncate(checkpoint):
        if not promised:
            floor = engine.checkpoint_blk  # the floor the task was scheduled at
            height = batcher.stats()["open_height"]
            for _ in range(2):  # two commits below the next cascade
                commit_direct(engine, wal, height)
                height += 1
            wal.sync()
            hub.check_start(floor)  # a replica at the floor subscribes
            hub.register()
            promised.append((floor, height - 1))
            while engine.checkpoint_blk < promised[0][1]:  # a cascade passes them
                commit_direct(engine, wal, height)
                height += 1
            wal.sync()
        return real_truncate(checkpoint)

    monkeypatch.setattr(wal, "truncate", late_truncate)

    async def scenario():
        while not promised:
            batcher.put_batch(block_items(batcher.stats()["open_height"]))
            await batcher.flush()
            wal.sync()
            await settle()

    asyncio.run(scenario())
    [(start, upto)] = promised
    caught_up = [height for height, _ in hub.catchup(start, upto)]
    truncated = wal.truncated_segments
    wal.close()
    engine.close()
    assert engine.checkpoint_blk > upto > start
    assert truncated > 0
    assert caught_up == list(range(start + 1, upto + 1))
