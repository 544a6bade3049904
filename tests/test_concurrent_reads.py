"""Concurrent-reader safety: queries hammered against a committing engine.

Readers pin the engine's published ``StoreView`` (``repro.core.storage``)
and take no gate, which promises that ``get`` / ``get_at`` / provenance
queries / scans from any number of threads stay *exact* while blocks
commit, L0 flushes, and background merges cascade — no torn reads, no
freed-run crashes, no stale answers.  These tests run
that exact scenario: a writer thread drives hundreds of small blocks
through an engine sized to cascade constantly, while reader threads
assert byte-exact results the whole time.

Values encode their block height, and every address is written in every
block, so a reader can compute the exact expected value for any
historical height it snapshots — a torn read or a half-switched group
would surface as a wrong byte string, not just a crash.
"""

import dataclasses
import threading
import time

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, verify_provenance

ADDR = 20
VALUE = 24
#: Tiny L0 + small size ratio: cascades and level merges on most commits.
PARAMS = ColeParams(
    system=SystemParams(addr_size=ADDR, value_size=VALUE),
    mem_capacity=32,
    size_ratio=2,
    async_merge=True,
)

NUM_ADDRS = 8
BLOCKS = 150
READERS = 6


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_at(n: int, blk: int) -> bytes:
    """The value addr ``n`` holds as of block ``blk`` (written every block)."""
    return n.to_bytes(4, "big") + blk.to_bytes(4, "big") + b"\x00" * (VALUE - 8)


class _Writer(threading.Thread):
    """Commits BLOCKS blocks, each updating every address."""

    def __init__(self, engine) -> None:
        super().__init__(name="hammer-writer")
        self.engine = engine
        self.published = 0  # highest committed height, read by readers
        self.error = None

    def run(self) -> None:
        try:
            for blk in range(1, BLOCKS + 1):
                self.engine.begin_block(blk)
                self.engine.put_many(
                    [(addr_of(n), value_at(n, blk)) for n in range(NUM_ADDRS)]
                )
                self.engine.commit_block()
                self.published = blk  # torn-free: int store
        except BaseException as exc:  # noqa: BLE001 — surfaced by the test
            self.error = exc


def _decode_blk(value: bytes) -> int:
    return int.from_bytes(value[4:8], "big")


def _paced(done, height, per_height=4):
    """Reader iterations until ``done()``, at most ``per_height`` while
    ``height()`` stays the same.  Readers take no gate, so unpaced they
    never wait for a commit and starve the one writer of the GIL: this
    bounds the hammer's iterations, every height of the run."""
    seen, budget = None, 0
    while not done():
        current = height()
        if current != seen:
            seen, budget = current, per_height
        if budget:
            budget -= 1
            yield
        else:
            time.sleep(0.0002)


def _expected_scan(a: int, b: int, blk: int):
    """The byte-exact scan result for ``[addr_of(a), addr_of(b)]`` at
    height ``blk`` (every address is written in every block)."""
    return [(addr_of(n), blk, value_at(n, blk)) for n in range(a, b + 1)]


def _check_scans(engine, snapshot, rng):
    """One historical and one latest scan, byte-exact against the model."""
    a = rng.randrange(NUM_ADDRS)
    b = rng.randrange(a, NUM_ADDRS)
    if snapshot >= 1:
        # Historical scan at a committed height: exactly one correct
        # answer, forever, even while cascades rewrite the runs.
        blk = rng.randint(1, snapshot)
        rows = engine.scan(addr_of(a), addr_of(b), at_blk=blk)
        assert rows == _expected_scan(a, b, blk), (a, b, blk)
        # Latest scan: commits are atomic across the whole engine (and
        # across shards, under the top-level gate), so every returned
        # address must carry the same height h >= snapshot.
        rows = engine.scan(addr_of(a), addr_of(b))
        heights = {blk for _addr, blk, _value in rows}
        assert len(heights) == 1, heights
        h = heights.pop()
        assert snapshot <= h <= BLOCKS, (snapshot, h)
        assert rows == _expected_scan(a, b, h), (a, b, h)


def _reader(engine, writer, reader_id, errors):
    """Hammers get / get_at / prov / scan until the writer finishes."""
    import random

    rng = random.Random(reader_id)
    try:
        for _ in _paced(lambda: not writer.is_alive(), lambda: writer.published):
            n = rng.randrange(NUM_ADDRS)
            snapshot = writer.published
            mode = rng.randrange(4)
            if mode == 3:
                _check_scans(engine, snapshot, rng)
            elif mode == 0 and snapshot >= 1:
                # Historical read at a committed height: exactly one
                # correct answer, forever.
                blk = rng.randint(1, snapshot)
                value = engine.get_at(addr_of(n), blk)
                assert value == value_at(n, blk), (n, blk, value)
            elif mode == 1:
                # Latest read: must be a well-formed value whose height
                # is sane — at least the snapshot (writes only grow).
                value = engine.get(addr_of(n))
                if snapshot >= 1:
                    assert value is not None
                    blk = _decode_blk(value)
                    assert snapshot <= blk <= BLOCKS, (n, snapshot, blk)
                    assert value == value_at(n, blk), (n, blk)
            elif snapshot >= 2:
                # Provenance with proof, anchored under one gate hold.
                hi = rng.randint(2, snapshot)
                lo = max(1, hi - 4)
                result, root = engine.prov_query_anchored(addr_of(n), lo, hi)
                versions = verify_provenance(result, root, addr_size=ADDR)
                assert [blk for blk, _v in versions] == list(range(lo, hi + 1))
                for blk, value in versions:
                    assert value == value_at(n, blk), (n, blk)
    except BaseException as exc:  # noqa: BLE001
        errors.append((reader_id, exc))


def _hammer(engine):
    writer = _Writer(engine)
    errors = []
    readers = [
        threading.Thread(
            target=_reader,
            args=(engine, writer, rid, errors),
            name=f"hammer-reader-{rid}",
        )
        for rid in range(READERS)
    ]
    writer.start()
    for reader in readers:
        reader.start()
    writer.join(timeout=120)
    for reader in readers:
        reader.join(timeout=120)
    assert writer.error is None, f"writer failed: {writer.error!r}"
    assert not errors, f"readers failed: {errors[:3]!r}"
    assert writer.published == BLOCKS
    # The run exercised what it claims: merges actually cascaded.
    assert engine.num_disk_levels() >= 2


def test_concurrent_readers_exact_under_merge_cascades(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    try:
        _hammer(engine)
        # Quiesced final state is exact too.
        engine.wait_for_merges()
        for n in range(NUM_ADDRS):
            assert engine.get(addr_of(n)) == value_at(n, BLOCKS)
    finally:
        engine.close()


def test_concurrent_reads_during_synchronous_cascades(tmp_path):
    """Pinned views also cover Algorithm 1's inline recursive merges."""
    engine = Cole(str(tmp_path / "ws"), dataclasses.replace(PARAMS, async_merge=False))
    stop = threading.Event()
    errors = []
    committed = [0]  # highest committed height (torn-free list store)

    import random

    def read_loop():
        rng = random.Random(99)
        try:
            for _ in _paced(stop.is_set, lambda: committed[0]):
                value = engine.get(addr_of(1))
                if value is not None:
                    blk = _decode_blk(value)
                    assert value == value_at(1, blk)
                    # Scans stay exact under Algorithm 1's inline
                    # recursive merges too.
                    _check_scans(engine, min(blk, committed[0]), rng)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    readers = [threading.Thread(target=read_loop) for _ in range(3)]
    for reader in readers:
        reader.start()
    try:
        for blk in range(1, 80):
            engine.begin_block(blk)
            engine.put_many(
                [(addr_of(n), value_at(n, blk)) for n in range(NUM_ADDRS)]
            )
            engine.commit_block()
            committed[0] = blk
    finally:
        stop.set()
        for reader in readers:
            reader.join(timeout=60)
    assert not errors, f"readers failed: {errors[:3]!r}"
    assert engine.get(addr_of(1)) == value_at(1, 79)
    engine.close()


@pytest.mark.parametrize("num_threads", [4])
def test_commit_gate_basic_exclusion(num_threads):
    """Unit check of the gate itself, a writer mutex: holders exclude
    each other, and a holder that raises still releases it."""
    from repro.common.gate import CommitGate

    gate = CommitGate()
    state = {"holders": 0, "entries": 0, "violations": 0}
    lock = threading.Lock()

    def write_once(fail):
        with gate.exclusive():
            with lock:
                state["holders"] += 1
                state["entries"] += 1
                if state["holders"] > 1:
                    state["violations"] += 1
            with lock:
                state["holders"] -= 1
            if fail:
                raise RuntimeError("mutator failed")

    def worker(seed):
        import random

        rng = random.Random(seed)
        for _ in range(300):
            try:
                write_once(rng.random() < 0.1)
            except RuntimeError:
                pass

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert state["violations"] == 0
    assert state["entries"] == 300 * num_threads


# =============================================================================
# batched reads: get_many under concurrent commits
# =============================================================================

def _mget_reader(engine, writer, reader_id, errors):
    """Hammers get_many; every batch must come from one committed state."""
    import random

    rng = random.Random(1000 + reader_id)
    try:
        while writer.is_alive():
            snapshot = writer.published
            picks = [rng.randrange(NUM_ADDRS) for _ in range(6)]
            addrs = [addr_of(n) for n in picks]
            addrs.append(addr_of(NUM_ADDRS + 5))  # never written
            values = engine.get_many(addrs)
            assert values[-1] is None
            if snapshot < 1:
                continue
            heights = set()
            for n, value in zip(picks, values[:-1]):
                assert value is not None, n
                blk = _decode_blk(value)
                assert snapshot <= blk <= BLOCKS, (n, snapshot, blk)
                assert value == value_at(n, blk), (n, blk)
                heights.add(blk)
            # One view and one mem-lock hold over the writing group, so
            # a commit can never land between two keys of a batch.
            assert len(heights) == 1, heights
    except BaseException as exc:  # noqa: BLE001
        errors.append((reader_id, exc))


def _hammer_mget(engine):
    writer = _Writer(engine)
    errors = []
    readers = [
        threading.Thread(
            target=_mget_reader,
            args=(engine, writer, rid, errors),
            name=f"mget-reader-{rid}",
        )
        for rid in range(4)
    ]
    writer.start()
    for reader in readers:
        reader.start()
    writer.join(timeout=120)
    for reader in readers:
        reader.join(timeout=120)
    assert writer.error is None, f"writer failed: {writer.error!r}"
    assert not errors, f"readers failed: {errors[:3]!r}"
    # Quiesced: batched and point reads agree exactly.
    engine.wait_for_merges()
    addrs = [addr_of(n) for n in range(NUM_ADDRS)]
    assert engine.get_many(addrs) == [engine.get(addr) for addr in addrs]


def test_get_many_single_snapshot_under_commit_hammer(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    try:
        _hammer_mget(engine)
    finally:
        engine.close()

