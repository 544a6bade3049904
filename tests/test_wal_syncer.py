"""The WAL syncer: one group fsync per loop tick, run where it is cheaper.

``_WalSyncer`` picks where each sync pass runs — inline on the event
loop or handed to the thread pool — from two costs it measures while
serving: what a pass costs (F) and what a hand-off costs (H).  Nothing
configures the choice, so the tests steer it the only way there is: by
what those measurements hold.  Every property is checked on both paths:

* the PUTs of one tick share one ``os.fsync`` and no answer is encoded
  before that fsync *returned* (also with the fsync raised to 20 ms);
* a slow fsync moves the passes to the pool within one ring length and
  the loop keeps answering GETs meanwhile; a fast fsync under a loaded
  pool brings them back inline;
* ``OSError`` from the fsync, and a log poisoned between an append and
  its sync, fail exactly the parked acks with a taxonomy error and leave
  the connection usable;
* ``always`` still pays one pass per ack; the fig-18 smoke keeps
  ``batch`` under half a sync per put and ``always`` above ``batch``.
"""

import asyncio
import os
import threading
import time

import pytest

import repro.wal.log as wal_log
from repro.bench.experiments import run_durability
from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.server import ColeServer, ServerClient, ServerConfig, protocol
from repro.server.server import _COST_RING
from repro.wal import WriteAheadLog

from raw_frames import read_frame

PARAMS = ColeParams(
    system=SystemParams(addr_size=20, value_size=24),
    mem_capacity=64,
    size_ratio=2,
    async_merge=True,
)
PATHS = ("inline", "pooled")
SLOW_FSYNC = 0.02
WORKERS = 2


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 6


class _FsyncOs:
    """Stands in for ``repro.wal.log``'s module-level ``os`` (the seam
    the traced server uses too): counts the fsyncs, logs each *return*
    into ``events``, and can make them slow or make the next one fail."""

    def __init__(self) -> None:
        self.events = []
        self.delay = 0.0
        self.fail_next = False
        self.threads = set()

    def __getattr__(self, name: str):
        return getattr(os, name)

    def fsync(self, fd: int) -> None:
        if self.fail_next:
            self.fail_next = False
            raise OSError(5, "injected fsync failure")
        os.fsync(fd)
        if self.delay:
            time.sleep(self.delay)
        self.threads.add(threading.get_ident())
        self.events.append("fsync")


@pytest.fixture
def fsync_os(monkeypatch):
    fake = _FsyncOs()
    monkeypatch.setattr(wal_log, "os", fake)
    return fake


def _serve(tmp_path, scenario, wal_sync="batch"):
    """Run ``scenario(server, host, port)`` with a WAL'd ColeServer on
    the scenario's own loop (the group-commit timer never fires)."""
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    wal = WriteAheadLog(str(tmp_path / "wal"), sync_policy=wal_sync)

    async def main():
        server = ColeServer(
            engine,
            config=ServerConfig(
                batch_max_puts=100_000, batch_max_delay=60.0, executor_workers=WORKERS
            ),
            wal=wal,
        )
        host, port = await server.start()
        try:
            await asyncio.wait_for(scenario(server, host, port), 60)
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    finally:
        wal.close()
        engine.close()


def _steer(server, path: str) -> None:
    """Fill both cost rings so the coming passes take ``path``: a pass
    that costs nothing beside a dear hop runs inline, and the reverse."""
    cheap, dear = [1e-6] * _COST_RING, [1.0] * _COST_RING
    syncer = server.wal_syncer
    syncer._passes.extend(cheap if path == "inline" else dear)
    server._hops.extend(dear if path == "inline" else cheap)


def _taken(server) -> dict:
    syncer = server.wal_syncer
    return {"inline": syncer.syncs_inline, "pooled": syncer.syncs_pooled}


async def _same_tick_puts(host, port, first: int, count: int) -> list:
    """``count`` PUTs from ``count`` connections, written back to back
    with no await between them: the server's next ``select`` finds them
    all readable, so they are decoded in one loop iteration."""
    streams = [await asyncio.open_connection(host, port) for _ in range(count)]
    try:
        for n, (_reader, writer) in enumerate(streams, first):
            writer.write(protocol.encode_put(addr_of(n), value_of(n)))
        return [await read_frame(reader) for reader, _writer in streams]
    finally:
        for _reader, writer in streams:
            writer.close()
            await writer.wait_closed()


# =============================================================================
# one tick, one fsync, and no answer before it returned
# =============================================================================

@pytest.mark.parametrize("delay", (0.0, SLOW_FSYNC), ids=("fast", "slow"))
@pytest.mark.parametrize("path", PATHS)
def test_puts_of_one_tick_share_one_fsync_that_returned_before_any_answer(
    tmp_path, monkeypatch, fsync_os, path, delay
):
    events = fsync_os.events
    encode = protocol.encode_height_response

    def encode_logged(height):
        events.append("answer")
        return encode(height)

    monkeypatch.setattr(protocol, "encode_height_response", encode_logged)

    async def scenario(server, host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(0), value_of(0))  # also fsyncs the new directory
        _steer(server, path)
        before, syncs = _taken(server), server.wal.syncs
        fsync_os.delay = delay
        del events[:]
        fsync_os.threads.clear()
        bodies = await _same_tick_puts(host, port, 1, 8)
        assert [protocol.decode_height_response(body) for body in bodies] == [1] * 8
        assert events == ["fsync"] + ["answer"] * 8
        assert server.wal.syncs == syncs + 1
        assert _taken(server)[path] == before[path] + 1
        on_loop = fsync_os.threads == {threading.get_ident()}
        assert on_loop == (path == "inline")

    _serve(tmp_path, scenario)


@pytest.mark.parametrize("path", PATHS)
def test_always_pays_one_pass_per_ack(tmp_path, path):
    async def scenario(server, host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(0), value_of(0))
        _steer(server, path)
        before, syncs = _taken(server), server.wal.syncs
        await _same_tick_puts(host, port, 1, 6)
        assert server.wal.syncs == syncs + 6
        assert _taken(server)[path] == before[path] + 6

    _serve(tmp_path, scenario, wal_sync="always")


# =============================================================================
# the choice follows the measured costs, in both directions
# =============================================================================

async def _occupy_pool(server, stop: asyncio.Event) -> None:
    """Keep every pool worker asleep (submitted around ``_run``, so the
    load itself feeds no hop sample): a hand-off now queues for one."""
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        await asyncio.gather(*(
            loop.run_in_executor(server._executor, time.sleep, 0.01)
            for _ in range(WORKERS)
        ))


def test_a_slow_fsync_goes_to_the_pool_and_a_fast_one_under_a_loaded_pool_comes_back(
    tmp_path, fsync_os
):
    async def puts(client, start: int, count: int) -> None:
        for n in range(start, start + count):
            await client.put(addr_of(n), value_of(n))

    async def scenario(server, host, port):
        async with ServerClient(host, port) as client, ServerClient(host, port) as reader:
            # An idle server measures both costs for itself; with no
            # sample yet it hands the sync off.
            assert _taken(server) == {"inline": 0, "pooled": 0}
            await puts(client, 0, 4)
            assert _taken(server)["pooled"] >= 1
            assert len(server._hops) >= 1 and len(server.wal_syncer._passes) == 4

            # The fsync turns slow: within one ring length the passes
            # are on the pool, and stay there.
            fsync_os.delay = SLOW_FSYNC
            await puts(client, 100, _COST_RING)
            before = _taken(server)
            await puts(client, 200, 10)
            assert _taken(server)["pooled"] - before["pooled"] >= 9

            # ... where they do not block the loop: a GET issued while a
            # PUT is parked on the 20 ms fsync is answered long before it.
            parked = asyncio.ensure_future(client.put(addr_of(300), value_of(300)))
            await asyncio.sleep(0.002)
            assert not parked.done()
            started = time.perf_counter()
            assert await reader.get(addr_of(100)) == value_of(100)
            assert time.perf_counter() - started < SLOW_FSYNC / 2
            assert not parked.done()
            await parked

            # The fsync is fast again and the pool is loaded: hand-offs
            # now cost more than the pass, and the passes return inline.
            fsync_os.delay = 0.0
            stop = asyncio.Event()
            load = asyncio.ensure_future(_occupy_pool(server, stop))
            try:
                await puts(client, 400, _COST_RING)
                before = _taken(server)
                await puts(client, 500, 10)
                assert _taken(server)["inline"] - before["inline"] >= 9
            finally:
                stop.set()
                await load

    _serve(tmp_path, scenario)


def test_run_times_the_hand_off_not_the_work(tmp_path):
    async def scenario(server, host, port):
        del host, port
        server._hops.clear()
        seen = server._hop_hist.count
        await server._run(time.sleep, 0.05)
        assert server._hop_hist.count == seen + 1
        (hop,) = server._hops
        assert 0.0 < hop < 0.05

    _serve(tmp_path, scenario)


# =============================================================================
# failures reach exactly the parked acks
# =============================================================================

@pytest.mark.parametrize("path", PATHS)
def test_an_fsync_error_fails_the_parked_acks_and_the_next_put_succeeds(
    tmp_path, fsync_os, path
):
    async def scenario(server, host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(0), value_of(0))
            _steer(server, path)
            fsync_os.fail_next = True
            with pytest.raises(StorageError, match="WAL sync failed.*injected"):
                await client.put(addr_of(1), value_of(1))
            assert await client.put(addr_of(2), value_of(2)) == 1
            assert await client.get(addr_of(2)) == value_of(2)
        assert not server._conn_tasks and server.wal_syncer._task is None

    _serve(tmp_path, scenario)


@pytest.mark.parametrize("path", PATHS)
def test_a_log_poisoned_between_append_and_sync_fails_the_ack_instead_of_spinning(
    tmp_path, monkeypatch, path
):
    async def scenario(server, host, port):
        async with ServerClient(host, port) as client:
            await client.put(addr_of(0), value_of(0))
            _steer(server, path)
            put = server.batcher.put

            def put_then_poison(addr, value):
                height = put(addr, value)
                # What ``_write_all`` does when it cannot cut a torn
                # record back: from here on ``sync`` syncs nothing.
                server.wal._closed = True
                return height

            monkeypatch.setattr(server.batcher, "put", put_then_poison)
            try:
                with pytest.raises(StorageError, match="WAL sync failed.*closed"):
                    await asyncio.wait_for(client.put(addr_of(1), value_of(1)), 10)
                monkeypatch.setattr(server.batcher, "put", put)
                # The connection still serves, and later PUTs are refused
                # at the append.
                assert await client.get(addr_of(0)) == value_of(0)
                with pytest.raises(StorageError, match="write-ahead log is closed"):
                    await client.put(addr_of(2), value_of(2))
                assert server.wal_syncer._task is None
            finally:
                server.wal._closed = False  # let teardown close the handles

    _serve(tmp_path, scenario)


# =============================================================================
# grouping survives at 32 clients (fig 18)
# =============================================================================

def test_fig18_smoke_batch_groups_and_always_does_not():
    rows = {
        row["policy"]: row
        for row in run_durability(
            policies=("batch", "always"), clients=32, ops_per_client=25, num_keys=512
        )
    }
    assert rows["batch"]["errors"] == rows["always"]["errors"] == 0
    assert rows["batch"]["syncs_per_put"] < 0.5
    assert rows["always"]["syncs_per_put"] > rows["batch"]["syncs_per_put"]
