"""The read caches are exact, not epochal.

A commit refreshes the cache entries of the addresses it wrote and
leaves every other entry a hit (``repro.server.cache``).  These tests
drive the serving path through the interleavings where that could go
wrong — a pooled read whose fill arrives after a commit wrote its key,
cold written keys, negative entries, ``get_at`` at open heights — and a
hypothesis differential compares every answer of a served store to a
dict-of-versions model, with the cache at default capacity and at 1.
"""

import asyncio
import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole
from repro.core.storage import WOULD_BLOCK
from repro.server import ServerClient, ServerConfig, ServerThread
from version_model import VersionModel

ADDR = 20
VALUE = 24
PARAMS = ColeParams(
    system=SystemParams(addr_size=ADDR, value_size=VALUE),
    mem_capacity=16,
    size_ratio=2,
    async_merge=True,
)
#: No timer or size flush: only FLUSH commits.
MANUAL = dict(batch_max_puts=10_000, batch_max_delay=60.0)


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 6


def run_scenario(engine, scenario, **config):
    with ServerThread(engine, config=ServerConfig(**config)) as thread:
        asyncio.run(scenario(*thread.start()))
    engine.close()


class SlowPooledReads:
    """An engine whose single-key reads always take the pool, where the
    first one parks between reading its answer and returning it."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.parked = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def get(self, addr, wait=True):
        if not wait:
            return WOULD_BLOCK
        value = self._engine.get(addr)
        if not self.parked.is_set():
            self.parked.set()
            assert self.release.wait(timeout=60)
        return value


def test_fill_of_a_pooled_read_that_raced_a_commit_is_dropped(tmp_path):
    engine = SlowPooledReads(Cole(str(tmp_path / "ws"), PARAMS))

    async def scenario(host, port):
        async with ServerClient(host, port) as writer, ServerClient(host, port) as reader:
            await writer.put(addr_of(1), value_of(1))
            await writer.flush()
            # The pooled read of k starts (and has read v1) ...
            racing = asyncio.ensure_future(reader.get(addr_of(1)))
            await asyncio.get_running_loop().run_in_executor(None, engine.parked.wait, 60)
            # ... a commit writing k lands ...
            await writer.put(addr_of(1), value_of(2))
            await writer.flush()
            # ... then the read's fill arrives, stamped before the commit.
            engine.release.set()
            assert await racing == value_of(1)  # it did read before the commit
            assert await writer.get(addr_of(1)) == value_of(2)
            stats = await writer.stats()
            assert stats["reads"]["would_block"] == 2
            assert stats["cache"]["hits"] == 0  # the stale fill never landed

    run_scenario(engine, scenario, **MANUAL)


def test_commit_refreshes_present_entries_and_inserts_no_cold_keys(tmp_path):
    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            await client.multi_put([(addr_of(n), value_of(n)) for n in range(8)])
            await client.flush()
            assert await client.get(addr_of(0)) == value_of(0)  # the one cached key
            before = await client.stats()
            assert before["cache"]["entries"] == 1
            # A commit over uncached keys leaves the entry count alone.
            await client.multi_put([(addr_of(n), value_of(n + 50)) for n in range(1, 8)])
            await client.flush()
            cold = await client.stats()
            assert cold["cache"]["entries"] == 1
            assert cold["cache"]["refreshed"] == 0
            # A commit over the cached key refreshes it in place: the next
            # GET is a cache hit and returns the committed value.
            await client.put(addr_of(0), value_of(99))
            await client.flush()
            assert await client.get(addr_of(0)) == value_of(99)
            after = await client.stats()
            assert after["cache"]["refreshed"] == 1
            assert after["cache"]["hits"] == cold["cache"]["hits"] + 1
            assert after["reads"] == cold["reads"]  # the engine was not asked

    run_scenario(Cole(str(tmp_path / "ws"), PARAMS), scenario, **MANUAL)


def test_negative_entry_is_dropped_by_the_commit_that_writes_the_address(tmp_path):
    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            assert await client.get(addr_of(5)) is None
            assert await client.get(addr_of(5)) is None  # negative-cache hit
            assert (await client.stats())["negative_cache"]["hits"] == 1
            await client.put(addr_of(5), value_of(5))
            await client.flush()
            assert await client.get(addr_of(5)) == value_of(5)
            assert (await client.stats())["negative_cache"]["entries"] == 0

    run_scenario(Cole(str(tmp_path / "ws"), PARAMS), scenario, **MANUAL)


def test_get_at_is_cached_only_below_the_open_heights(tmp_path):
    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            height = await client.put(addr_of(3), value_of(1))
            await client.flush()
            future = height + 1_000
            # At or above the open height: answered, never cached.
            assert await client.get_at(addr_of(3), future) == value_of(1)
            assert (await client.stats())["cache"]["entries"] == 0
            await client.put(addr_of(3), value_of(2))
            await client.flush()
            assert await client.get_at(addr_of(3), future) == value_of(2)
            # Committed history is immutable: cached, and still right after
            # a later commit writes the address.
            assert await client.get_at(addr_of(3), height) == value_of(1)
            await client.put(addr_of(3), value_of(3))
            await client.flush()
            before = (await client.stats())["cache"]["hits"]
            assert await client.get_at(addr_of(3), height) == value_of(1)
            assert (await client.stats())["cache"]["hits"] == before + 1

    run_scenario(Cole(str(tmp_path / "ws"), PARAMS), scenario, **MANUAL)


# =============================================================================
# differential: a served store against a dict-of-versions model
# =============================================================================

KEYS = st.integers(min_value=0, max_value=2)  # few keys: cached, then rewritten
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("get_at"), KEYS, st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("put"), KEYS),
        st.tuples(st.just("multi_put"), st.lists(KEYS, min_size=1, max_size=4)),
        st.tuples(st.just("multi_get"), st.lists(KEYS, min_size=1, max_size=4)),
        st.tuples(st.just("flush")),
    ),
    min_size=30,  # long enough to cache a key, rewrite it, commit and re-read it
    max_size=80,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(OPS, st.sampled_from([8192, 1]))
def test_served_answers_match_the_version_model(tmp_path_factory, ops, capacity):
    engine = Cole(str(tmp_path_factory.mktemp("diff")), PARAMS)
    model = VersionModel()

    async def scenario(host, port):
        latest = 2**63
        async with ServerClient(host, port) as client:
            for serial, (kind, *args) in enumerate(ops):
                value = serial.to_bytes(4, "big") * 6
                if kind == "get":
                    assert await client.get(addr_of(args[0])) == model.at(addr_of(args[0]), latest)
                elif kind == "get_at":
                    key, blk = args
                    assert await client.get_at(addr_of(key), blk) == model.at(addr_of(key), blk)
                elif kind == "put":
                    height = await client.put(addr_of(args[0]), value)
                    model.write(addr_of(args[0]), height, value)
                elif kind == "multi_put":
                    height = await client.multi_put([(addr_of(key), value) for key in args[0]])
                    for key in args[0]:
                        model.write(addr_of(key), height, value)
                elif kind == "multi_get":
                    addrs = [addr_of(key) for key in args[0]]
                    assert await client.multi_get(addrs) == [model.at(a, latest) for a in addrs]
                else:
                    await client.flush()

    # A tiny batch delay: timer commits land between (and during) the ops.
    run_scenario(
        engine, scenario, cache_capacity=capacity, batch_max_puts=4, batch_max_delay=0.0005
    )
