"""Readers hold a ``StoreView``, not the gate.

``get`` / ``get_at`` / ``get_many`` / ``scan`` / ``prov_query_anchored``
walk the engine's published view and take only the mem lock around
what they read of an L0 group, so they never wait for a commit
checkpoint.  These tests hammer that contract from reader threads while
one writer commits with forced cascades, on the sync and async engines,
and compare every answer to a dict-of-versions model (the
shape of ``benchmarks/perf/workgen.py::VersionModel``): an answer at a
committed height must be exact, and one at the latest height must equal
the model's state at *some* height between the read's start and its
end.  The pinned-view tests hold a view across the merges that delete
its runs, or across ``close``: the names leave the directory (or the
engine), the view keeps answering as of its epoch, and dropping it
closes the descriptors.

CI runs this file ten times under ``REPRO_DEBUG_LOCKS=1`` — the races
are timing-dependent, one green run proves little.
"""

import gc
import os
import random
import sys
import threading
import time

import pytest

from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, verify_provenance
from repro.core.compound import MAX_BLK, compound_key
from repro.core.storage import WOULD_BLOCK
from repro.diskio.pagefile import PagedFile
from version_model import VersionModel

ADDR = 20
VALUE = 24
NUM_ADDRS = 12
BLOCKS = 120
READERS = 4


def params(async_merge: bool) -> ColeParams:
    """Tiny L0 + small size ratio: level merges on most cascades."""
    return ColeParams(
        system=SystemParams(addr_size=ADDR, value_size=VALUE),
        mem_capacity=16,
        size_ratio=2,
        async_merge=async_merge,
    )


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_at(n: int, blk: int) -> bytes:
    return n.to_bytes(4, "big") + blk.to_bytes(4, "big") + b"\x00" * (VALUE - 8)


def model_scan(model, a: int, b: int, blk: int, limit=None):
    """``scan(addr_of(a), addr_of(b), at_blk=blk, limit=limit)`` by the
    model (a value carries the height it was written at)."""
    rows = []
    for n in range(a, b + 1):
        value = model.at(addr_of(n), blk)
        if value is not None:
            rows.append((addr_of(n), int.from_bytes(value[4:8], "big"), value))
    return rows[:limit]


def model_window(model, addr: bytes, lo: int, hi: int):
    """The versions of ``addr`` written in ``[lo, hi]``."""
    return [(blk, value) for blk, value in model.versions.get(addr, []) if lo <= blk <= hi]


def make_blocks(seed: int):
    """The whole write stream, decided up front: block ``h`` (1-based)
    writes a random third of the addresses, so floors matter."""
    rng = random.Random(seed)
    model = VersionModel()
    blocks = []
    for blk in range(1, BLOCKS + 1):
        chosen = sorted(rng.sample(range(NUM_ADDRS), NUM_ADDRS // 3))
        items = [(addr_of(n), value_at(n, blk)) for n in chosen]
        for addr, value in items:
            model.write(addr, blk, value)
        blocks.append(items)
    return blocks, model


class _Writer(threading.Thread):
    """Commits the stream; ``started`` / ``published`` bracket what a
    concurrent read may have seen."""

    def __init__(self, engine, blocks) -> None:
        super().__init__(name="view-writer")
        self.engine, self.blocks = engine, blocks
        self.started = 0  # highest height whose puts may have begun
        self.published = 0  # highest height whose commit returned
        self.error = None

    def run(self) -> None:
        try:
            for blk, items in enumerate(self.blocks, start=1):
                self.started = blk
                self.engine.begin_block(blk)
                self.engine.put_many(items)
                if blk % 3 == 0:
                    self.engine.commit_block(force_cascade=True)
                else:
                    self.engine.commit_block()
                self.published = blk
        except BaseException as exc:  # noqa: BLE001 — surfaced by the test
            self.error = exc


def _reader(engine, writer, model, reader_id, errors):
    rng = random.Random(reader_id)
    try:
        while writer.is_alive():
            mode = rng.randrange(5)
            addr = addr_of(rng.randrange(NUM_ADDRS))
            lo = writer.published
            if mode == 0:
                value = engine.get(addr)
                heights = range(lo, writer.started + 1)
                assert value in {model.at(addr, h) for h in heights}, (addr, lo)
            elif mode == 1 and lo >= 1:
                blk = rng.randint(1, lo)  # committed history: one right answer
                assert engine.get_at(addr, blk) == model.at(addr, blk), (addr, blk)
            elif mode == 3:
                # Scans, over a range that ends in a never-written address.
                a = rng.randrange(NUM_ADDRS + 1)
                b = rng.randrange(a, NUM_ADDRS + 1)
                limit = rng.choice([None, 1, 3])
                if lo >= 1:
                    blk = rng.randint(1, lo)
                    rows = engine.scan(addr_of(a), addr_of(b), at_blk=blk, limit=limit)
                    assert rows == model_scan(model, a, b, blk, limit), (a, b, blk)
                # Latest: L0 copied under one mem-lock hold, so the scan
                # is one instant.
                rows = engine.scan(addr_of(a), addr_of(b), limit=limit)
                heights = range(lo, writer.started + 1)
                assert any(rows == model_scan(model, a, b, h, limit) for h in heights), (
                    a, b, lo,
                )
            elif mode == 4 and lo >= 1:
                # Provenance over committed history, anchored and verified.
                hi = rng.randint(1, lo)
                blk_low = rng.randint(max(1, hi - 8), hi)
                target = addr_of(rng.randrange(NUM_ADDRS + 1))
                result, root = engine.prov_query_anchored(target, blk_low, hi)
                versions = verify_provenance(result, root, addr_size=ADDR)
                assert versions == model_window(model, target, blk_low, hi), (target, hi)
            else:
                addrs = [addr_of(n) for n in rng.sample(range(NUM_ADDRS), 5)]
                addrs.append(addr_of(NUM_ADDRS + 7))  # never written
                values = engine.get_many(addrs)
                heights = range(lo, writer.started + 1)
                # One view, one mem-lock hold over the writing group: the
                # whole batch describes a single height.
                assert any(
                    values == [model.at(a, h) for a in addrs] for h in heights
                ), (values, lo)
    except BaseException as exc:  # noqa: BLE001
        errors.append((reader_id, exc))


def _hammer(engine):
    blocks, model = make_blocks(seed=7)
    writer = _Writer(engine, blocks)
    errors = []
    readers = [
        threading.Thread(
            target=_reader,
            args=(engine, writer, model, rid, errors),
            name=f"view-reader-{rid}",
        )
        for rid in range(READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more hand-offs mid-insert and mid-checkpoint
    try:
        writer.start()
        for reader in readers:
            reader.start()
        writer.join(timeout=120)
        for reader in readers:
            reader.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and not any(r.is_alive() for r in readers)
    assert writer.error is None, f"writer failed: {writer.error!r}"
    assert not errors, f"readers failed: {errors[:3]!r}"
    assert writer.published == BLOCKS
    assert engine.num_disk_levels() >= 2  # merges actually cascaded
    for n in range(NUM_ADDRS):  # quiesced: exact
        assert engine.get(addr_of(n)) == model.at(addr_of(n), BLOCKS)


@pytest.mark.parametrize("async_merge", [False, True], ids=["sync", "async"])
def test_point_reads_match_the_model_under_forced_cascades(tmp_path, async_merge):
    engine = Cole(str(tmp_path / "ws"), params(async_merge))
    try:
        _hammer(engine)
    finally:
        engine.close()


# =============================================================================
# a pinned view outlives the runs it names
# =============================================================================

def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _view_answers(cole, view):
    keys = [(compound_key(addr_of(n), MAX_BLK), addr_of(n)) for n in range(NUM_ADDRS)]
    return [cole._lookup(view, key, addr, True) for key, addr in keys]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("async_merge", [False, True], ids=["sync", "async"])
def test_pinned_view_answers_after_its_runs_are_merged_away(tmp_path, async_merge):
    blocks, model = make_blocks(seed=11)
    cole = Cole(str(tmp_path / "ws"), params(async_merge))
    try:
        half = BLOCKS // 2
        for blk, items in enumerate(blocks[:half], start=1):
            cole.begin_block(blk)
            cole.put_many(items)
            cole.commit_block(force_cascade=blk % 2 == 0)
        view = cole._view
        pinned = {s.source.name for s in view.sources if s.kind == "run"}
        assert pinned
        assert _view_answers(cole, view) == [
            model.at(addr_of(n), half) for n in range(NUM_ADDRS)
        ]
        # The view's writing L0 group takes inserts until the next
        # checkpoint retires it: from then on the view is frozen.
        for blk, items in enumerate(blocks[half:], start=half + 1):
            cole.begin_block(blk)
            cole.put_many(items)
            cole.commit_block(force_cascade=True)
        expected = [model.at(addr_of(n), half + 1) for n in range(NUM_ADDRS)]
        cole.wait_for_merges()
        for _ in range(3):  # drain: commit the finished merges
            blk += 1
            cole.begin_block(blk)
            cole.commit_block(force_cascade=True)
        cole.wait_for_merges()
        assert cole._view.epoch > view.epoch
        live = {s.source.name for s in cole._view.sources if s.kind == "run"}
        gone = pinned - live
        assert gone, "the cascades merged none of the pinned runs away"
        on_disk = set(os.listdir(cole.workspace.root))
        assert not {name for name in on_disk if name.split(".")[0] in gone}
        # The names are gone; the pinned view still answers as of its epoch.
        assert _view_answers(cole, view) == expected
        gc.collect()
        before = _open_fds()
        del view
        gc.collect()
        # .val / .idx / .mrk of every merged-away run close with the view.
        assert before - _open_fds() == 3 * len(gone)
        assert [cole.get(addr_of(n)) for n in range(NUM_ADDRS)] == [
            model.at(addr_of(n), BLOCKS) for n in range(NUM_ADDRS)
        ]
    finally:
        cole.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_close_returns_while_a_scan_is_in_flight(tmp_path, monkeypatch):
    """``close`` waits for no reader: a scan parked mid-walk across it
    finishes exact on the runs it pinned, and their descriptors close
    when it ends."""
    blocks, model = make_blocks(seed=5)
    gc.collect()
    baseline = _open_fds()
    engine = Cole(str(tmp_path / "ws"), params(True))
    for blk, items in enumerate(blocks, start=1):
        engine.begin_block(blk)
        engine.put_many(items)
        engine.commit_block()
    assert engine.num_disk_levels() >= 2
    parked, release = threading.Event(), threading.Event()
    read_page = PagedFile.read_page

    def parking_read_page(self, page_id):
        if threading.current_thread().name == "parked-scan" and not parked.is_set():
            parked.set()  # the scan's first run page: its sources are pinned
            release.wait(60)
        return read_page(self, page_id)

    monkeypatch.setattr(PagedFile, "read_page", parking_read_page)
    answer = []
    scan = threading.Thread(
        target=lambda: answer.append(engine.scan(addr_of(0), addr_of(NUM_ADDRS))),
        name="parked-scan",
    )
    scan.start()
    try:
        assert parked.wait(60), "the scan read no run page"
        closer = threading.Thread(target=engine.close, name="closer")
        closer.start()
        closer.join(30)
        assert not closer.is_alive(), "close waited for the in-flight scan"
    finally:
        release.set()
        scan.join(60)
    assert not scan.is_alive()
    assert answer == [model_scan(model, 0, NUM_ADDRS, BLOCKS)]
    gc.collect()
    assert _open_fds() == baseline


# =============================================================================
# the non-blocking read
# =============================================================================

def test_wait_false_answers_the_sentinel_while_the_mem_lock_is_held(tmp_path):
    engine = Cole(str(tmp_path / "one"), params(True))
    try:
        engine.begin_block(1)
        engine.put_many([(addr_of(1), value_at(1, 1))])
        engine.commit_block()
        held, release = threading.Event(), threading.Event()

        def hold():
            with engine._mem_lock:
                held.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold, name="mem-lock-holder")
        holder.start()
        assert held.wait(timeout=60)
        try:
            started = time.perf_counter()
            assert engine.get(addr_of(1), wait=False) is WOULD_BLOCK
            assert engine.get_at(addr_of(1), 1, wait=False) is WOULD_BLOCK
            assert time.perf_counter() - started < 1.0  # it never blocked
        finally:
            release.set()
            holder.join(timeout=60)
        assert engine.get(addr_of(1), wait=False) == value_at(1, 1)
        assert engine.get_at(addr_of(1), 1, wait=False) == value_at(1, 1)
        assert engine.get(addr_of(2), wait=False) is None
    finally:
        engine.close()
