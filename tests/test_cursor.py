"""The scan subsystem: sorted-source iterators, the merged scan stream,
and key-ordered range scans end-to-end on COLE and COLE*.

Scans are verified against a brute-force in-memory model of the full
write history (``addr -> {blk: value}``): for any address range, block
height, and limit, the model computes the exact live-version result the
engine must return, byte for byte — latest scans, historical ``at_blk``
scans, paging by limit + continuation, and scans after a rewind.
"""

import dataclasses
import random

import pytest

from repro.common.errors import StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, MAX_BLK, addr_successor
from repro.core.compound import compound_key
from repro.core.cursor import MergingCursor, ReadSource, scan_bounds, scan_sources
from repro.core.run import Run, encode_pairs
from repro.mbtree import MBTree

ADDR = 8
VALUE = 16
PARAMS = ColeParams(
    system=SystemParams(addr_size=ADDR, value_size=VALUE),
    mem_capacity=32,
    size_ratio=2,
)


def key_of(addr: bytes, blk: int) -> int:
    return compound_key(addr, blk)


# =============================================================================
# source iterators and the merged stream
# =============================================================================

def test_mbtree_iter_from_matches_items():
    tree = MBTree(order=4, key_width=8)
    rng = random.Random(5)
    keys = rng.sample(range(10_000), 300)
    for key in keys:
        tree.insert(key, key.to_bytes(4, "big"))
    ordered = list(tree.items())
    for probe in [0, 1, 4_999, 9_999, 10_001] + rng.sample(keys, 20):
        expect = [(k, v) for k, v in ordered if k >= probe]
        assert list(tree.iter_from(probe)) == expect
    assert list(MBTree(order=4, key_width=8).iter_from(0)) == []


def test_run_cursor_streams_from_seek(tmp_path, rng):
    from repro.diskio.workspace import Workspace

    ws = Workspace(str(tmp_path / "ws"), PARAMS.system.page_size)
    entries = sorted(
        (key_of(rng.randbytes(ADDR), blk), rng.randbytes(VALUE))
        for blk in range(4)
        for _ in range(60)
    )
    pairs = encode_pairs(entries, PARAMS.system.key_size)
    run = Run.build(ws, "L1_0", 1, iter(pairs), len(entries), PARAMS)
    # Start before, at, between, and after real keys.
    probes = [0, entries[0][0], entries[10][0], entries[10][0] + 1,
              entries[-1][0], entries[-1][0] + 1]
    for probe in probes:
        assert list(run.iter_from(probe)) == [e for e in entries if e[0] >= probe]
    ws.close()


def test_merging_cursor_orders_and_dedups_newest_wins():
    older = [(1, b"old1"), (3, b"old3"), (5, b"old5")]
    newer = [(2, b"new2"), (3, b"new3")]
    merged = MergingCursor([iter(newer), iter(older)])  # newest first
    assert merged.next() == (1, b"old1")
    assert list(merged) == [(2, b"new2"), (3, b"new3"), (5, b"old5")]
    assert merged.next() is None


def test_merging_cursor_merges_a_levels_runs(tmp_path, rng):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    pool = [rng.randbytes(ADDR) for _ in range(64)]
    for blk in range(1, 10):
        engine.begin_block(blk)
        engine.put_many([(a, rng.randbytes(VALUE)) for a in pool])
        engine.commit_block()
    # The view is the one definition of Algorithm 6's order.
    runs = [
        s.source for s in engine._view.sources
        if s.kind == "run" and s.source.level == 1
    ]
    assert len(runs) >= 1
    cursor = MergingCursor([run.iter_from(0) for run in runs])
    keys = [key for key, _v in cursor]
    assert keys == sorted(keys)
    assert len(keys) == sum(run.num_entries for run in runs)
    engine.close()


def test_resolve_versions_picks_live_version_and_skips_unborn():
    # scan_sources resolves versions inline on the merged stream.
    a1, a2, a3 = (bytes([n]) * ADDR for n in (1, 2, 3))
    older, newer = (MBTree(key_width=PARAMS.system.key_size) for _ in range(2))
    for group, addr, blk, value in [
        (older, a1, 2, b"a1@2"), (newer, a1, 5, b"a1@5"),
        (newer, a2, 7, b"a2@7"),
        (older, a3, 1, b"a3@1"), (newer, a3, 9, b"a3@9"),
    ]:
        group.insert(key_of(addr, blk), value)
    sources = [ReadSource.mem("mem:w", newer), ReadSource.mem("mem:m", older)]

    def scan(high, at_blk, limit=None):
        return scan_sources(
            sources, scan_bounds(a1, high, at_blk=at_blk, limit=limit, addr_size=ADDR)
        )

    # a1: version 5 live; a2: unborn at 5; a3: version 1 live.
    assert scan(a3, 5) == [(a1, 5, b"a1@5"), (a3, 1, b"a3@1")]
    # The high bound truncates mid-stream; a limit cuts after whole addresses.
    assert scan(a2, None) == [(a1, 5, b"a1@5"), (a2, 7, b"a2@7")]
    assert scan(a3, None, limit=2) == [(a1, 5, b"a1@5"), (a2, 7, b"a2@7")]
    assert scan(a3, 0) == []
    # L0 copies pinned for a scan (what the engines walk) answer the same:
    # entries past at_blk are left out, and a copy stops after `limit`
    # addresses that have a version at or below at_blk — at height 6, a2
    # (written only at 7) must not use up a limit of 2 before a3@6.
    newer.insert(key_of(a3, 6), b"a3@6")
    assert scan(a3, 6, limit=2) == [(a1, 5, b"a1@5"), (a3, 6, b"a3@6")]
    for high, at_blk, limit in [
        (a3, 5, None), (a2, None, None), (a3, None, 2), (a3, 0, None), (a3, 5, 1),
        (a3, 6, 2), (a3, 8, 2),
    ]:
        bounds = scan_bounds(a1, high, at_blk=at_blk, limit=limit, addr_size=ADDR)
        pinned = [source.pinned(bounds) for source in sources]
        assert scan_sources(pinned, bounds) == scan(high, at_blk, limit)
    bounds = scan_bounds(a1, a3, at_blk=8, limit=2, addr_size=ADDR)
    assert list(sources[0].pinned(bounds).iter_from(0)) == [
        (key_of(a1, 5), b"a1@5"), (key_of(a2, 7), b"a2@7"),
    ]


def test_addr_successor():
    assert addr_successor(b"\x00\x00") == b"\x00\x01"
    assert addr_successor(b"\x00\xff") == b"\x01\x00"
    assert addr_successor(b"\xff\xff") is None


# =============================================================================
# engine scans vs a brute-force model
# =============================================================================

class History:
    """Brute-force model of every version ever written."""

    def __init__(self):
        self.versions = {}  # addr -> {blk: value}

    def put(self, addr, blk, value):
        self.versions.setdefault(addr, {})[blk] = value

    def rewind(self, target_blk):
        for versions in self.versions.values():
            for blk in [blk for blk in versions if blk > target_blk]:
                del versions[blk]

    def scan(self, addr_low, addr_high, at_blk=MAX_BLK, limit=None):
        out = []
        for addr in sorted(self.versions):
            if not addr_low <= addr <= addr_high:
                continue
            live = [blk for blk in self.versions[addr] if blk <= at_blk]
            if not live:
                continue
            blk = max(live)
            out.append((addr, blk, self.versions[addr][blk]))
            if limit is not None and len(out) >= limit:
                break
        return out


def _load(engine, history, rng, blocks=40, puts_per_block=48, pool_size=120, first=1):
    pool = [rng.randbytes(ADDR) for _ in range(pool_size)]
    for blk in range(first, first + blocks):
        batch = [(rng.choice(pool), rng.randbytes(VALUE)) for _ in range(puts_per_block)]
        engine.begin_block(blk)
        engine.put_many(batch)
        engine.commit_block()
        for addr, value in batch:
            history.put(addr, blk, value)
    return sorted(set(pool)), blk


def _assert_scan_parity(engine, history, addrs, top_blk, rng, trials=120):
    for _ in range(trials):
        i = rng.randrange(len(addrs))
        j = rng.randrange(i, len(addrs))
        low, high = addrs[i], addrs[j]
        at_blk = rng.randint(0, top_blk + 2)
        limit = rng.choice([None, 1, 2, 7, 10_000])
        assert engine.scan(low, high, at_blk=at_blk, limit=limit) == history.scan(
            low, high, at_blk, limit
        ), (low.hex(), high.hex(), at_blk, limit)
        assert engine.scan(low, high, limit=limit) == history.scan(
            low, high, limit=limit
        )


@pytest.mark.parametrize("async_merge", [False, True])
def test_cole_scan_matches_model(tmp_path, async_merge):
    rng = random.Random(11 + async_merge)
    engine = Cole(str(tmp_path / "ws"), dataclasses.replace(PARAMS, async_merge=async_merge))
    history = History()
    addrs, top = _load(engine, history, rng)
    try:
        _assert_scan_parity(engine, history, addrs, top, rng)
        # Full-range scan (no limit) over the whole address space.
        assert engine.scan(b"\x00" * ADDR, b"\xff" * ADDR) == history.scan(
            b"\x00" * ADDR, b"\xff" * ADDR
        )
        # Behind a merge cascade in flight the answers hold too.
        engine.wait_for_merges()
        _assert_scan_parity(engine, history, addrs, top, rng, trials=30)
    finally:
        engine.close()


def test_scan_after_rewind_matches_truncated_model(tmp_path):
    """Rewinding filters runs into under-full ones."""
    rng = random.Random(41)
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    history = History()
    addrs, top = _load(engine, history, rng, blocks=30)
    try:
        target = top // 2
        engine.rewind_to(target)
        history.rewind(target)
        _assert_scan_parity(engine, history, addrs, target, rng, trials=60)
        # Writing resumes above the rewound height over the same layout.
        more, top = _load(engine, history, rng, blocks=10, first=target + 1)
        addrs = sorted(set(addrs) | set(more))
        _assert_scan_parity(engine, history, addrs, top, rng, trials=60)
    finally:
        engine.close()


def test_scan_continuation_paging_equals_one_shot(tmp_path):
    """Paging with limit + addr_successor reassembles the full scan —
    the primitive the server's continuation protocol rides."""
    rng = random.Random(31)
    engine = Cole(str(tmp_path / "ws"), dataclasses.replace(PARAMS, async_merge=True))
    history = History()
    addrs, _top = _load(engine, history, rng, blocks=20)
    try:
        low, high = b"\x00" * ADDR, b"\xff" * ADDR
        paged = []
        cursor = low
        while True:
            page = engine.scan(cursor, high, limit=7)
            paged.extend(page)
            if len(page) < 7:
                break
            cursor = addr_successor(page[-1][0])
            if cursor is None:
                break
        assert paged == engine.scan(low, high)
    finally:
        engine.close()


def test_scan_validates_arguments(tmp_path):
    engine = Cole(str(tmp_path / "ws"), PARAMS)
    try:
        for limit in (None, 0):  # limit=0 answers [] only for a valid request
            with pytest.raises(StorageError):
                engine.scan(b"\x01" * (ADDR - 1), b"\xff" * ADDR, limit=limit)
            with pytest.raises(StorageError):
                engine.scan(b"\x02" * ADDR, b"\x01" * ADDR, limit=limit)  # inverted
            with pytest.raises(StorageError):
                engine.scan(b"\x00" * ADDR, b"\xff" * ADDR, at_blk=-1, limit=limit)
        assert engine.scan(b"\x00" * ADDR, b"\xff" * ADDR, limit=0) == []
        assert engine.scan(b"\x00" * ADDR, b"\xff" * ADDR) == []  # empty store
    finally:
        engine.close()


def test_scan_sees_only_committed_heights_midstream(tmp_path):
    """An at_blk scan over committed history is immune to later writes."""
    engine = Cole(str(tmp_path / "ws"), dataclasses.replace(PARAMS, async_merge=True))
    addr = b"\x42" * ADDR
    try:
        for blk in (1, 2, 3):
            engine.begin_block(blk)
            engine.put(addr, bytes([blk]) * VALUE)
            engine.commit_block()
        frozen = engine.scan(addr, addr, at_blk=2)
        assert frozen == [(addr, 2, b"\x02" * VALUE)]
        engine.begin_block(9)
        engine.put(addr, b"\x09" * VALUE)
        engine.commit_block()
        assert engine.scan(addr, addr, at_blk=2) == frozen
        assert engine.scan(addr, addr) == [(addr, 9, b"\x09" * VALUE)]
    finally:
        engine.close()


def test_get_and_get_at_ride_the_same_sources(tmp_path):
    """The refactored point lookups answer exactly as the scan layer
    (both traverse the view's ``sources``)."""
    rng = random.Random(47)
    engine = Cole(str(tmp_path / "ws"), dataclasses.replace(PARAMS, async_merge=True))
    history = History()
    addrs, top = _load(engine, history, rng, blocks=25)
    try:
        for addr in rng.sample(addrs, 40):
            latest = history.scan(addr, addr)
            got = engine.get(addr)
            assert got == (latest[0][2] if latest else None)
            blk = rng.randint(0, top)
            at = history.scan(addr, addr, at_blk=blk)
            assert engine.get_at(addr, blk) == (at[0][2] if at else None)
    finally:
        engine.close()
