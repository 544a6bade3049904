"""Failure injection: corrupted files, torn manifests, forged proofs.

Exercises the paths a production deployment cares about: every
authenticated structure must *detect* tampering, and recovery must
survive garbage in the workspace.
"""

import json
import os
import random

import pytest

from repro.common.errors import IntegrityError, StorageError, VerificationError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, verify_provenance
from repro.core.proofs import RunNegativeItem, RunProofItem, StubItem


def make_params(async_merge=False):
    return ColeParams(
        system=SystemParams(addr_size=20, value_size=32),
        mem_capacity=16,
        size_ratio=3,
        async_merge=async_merge,
    )


def build_chain(directory, seed=13, blocks=70):
    rng = random.Random(seed)
    cole = Cole(directory, make_params())
    pool = [rng.randbytes(20) for _ in range(20)]
    for blk in range(1, blocks + 1):
        cole.begin_block(blk)
        for _ in range(5):
            cole.put(rng.choice(pool), rng.randbytes(32))
        cole.commit_block()
    return cole, pool


def test_corrupt_value_file_changes_read_results(tmp_path):
    directory = str(tmp_path / "c")
    cole, pool = build_chain(directory)
    run = cole.levels[-1].all_runs()[0]
    cole.workspace.close()
    # Flip bytes in the middle of the value file.
    path = os.path.join(directory, run.name + ".val")
    with open(path, "r+b") as handle:
        handle.seek(100)
        handle.write(b"\xff" * 64)
    reopened = Cole(directory, make_params())
    # The corruption must surface: either a read error or a provenance
    # proof that no longer matches the (pre-corruption) manifest root.
    tampered_detected = False
    for addr in pool:
        try:
            result = reopened.prov_query(addr, 1, 70)
            verify_provenance(result, reopened.root_digest(), addr_size=20)
            for item in result.proof.items:
                if isinstance(item, RunProofItem):
                    pass
        except (VerificationError, StorageError, IntegrityError, ValueError):
            tampered_detected = True
            break
    # Verification binds Hstate to current (corrupt) data, so the honest
    # check is against the run's *manifest* Merkle root:
    if not tampered_detected:
        corrupted_run = reopened.levels[-1].all_runs()[0]
        recomputed = corrupted_run.merkle_file.root()
        tampered_detected = recomputed != corrupted_run.merkle_root
    assert tampered_detected
    reopened.close()


def test_torn_manifest_falls_back_to_empty(tmp_path):
    directory = str(tmp_path / "torn")
    cole, _pool = build_chain(directory, blocks=30)
    cole.close()
    path = os.path.join(directory, "MANIFEST.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"checkpoint_blk": 5, "next_run_')  # torn write
    with pytest.raises(json.JSONDecodeError):
        Cole(directory, make_params())


def test_missing_run_file_detected_on_read(tmp_path):
    directory = str(tmp_path / "m")
    cole, pool = build_chain(directory)
    run = cole.levels[-1].all_runs()[0]
    cole.workspace.close()
    os.remove(os.path.join(directory, run.name + ".val"))
    # Reopen: the manifest still names the run; reads that reach it fail
    # loudly instead of returning wrong data.
    reopened = Cole(directory, make_params())
    with pytest.raises((StorageError, FileNotFoundError, IntegrityError)):
        for addr in pool:
            reopened.prov_query(addr, 1, 70)
    reopened.close()


def test_forged_negative_item_rejected(tmp_path):
    directory = str(tmp_path / "f")
    cole, pool = build_chain(directory)
    root = cole.root_digest()
    addr = pool[0]
    result = cole.prov_query(addr, 10, 60)
    # Replace a searched run item with a "bloom says absent" claim.
    for index, item in enumerate(result.proof.items):
        if isinstance(item, RunProofItem):
            from repro.bloomfilter import BloomFilter

            empty_bloom = BloomFilter(64, 3)
            result.proof.items[index] = RunNegativeItem(
                bloom_bytes=empty_bloom.to_bytes(),
                merkle_root=b"\x00" * 32,
            )
            with pytest.raises(VerificationError):
                verify_provenance(result, root, addr_size=20)
            break
    cole.close()


def test_forged_stub_hiding_results_rejected(tmp_path):
    directory = str(tmp_path / "s")
    cole, pool = build_chain(directory)
    root = cole.root_digest()
    addr = pool[1]
    result = cole.prov_query(addr, 10, 60)
    # Replace every searched item with a stub carrying a fake digest: the
    # reconstructed Hstate must not match.
    replaced = False
    for index, item in enumerate(result.proof.items):
        if not isinstance(item, StubItem):
            result.proof.items[index] = StubItem(digest=b"\x42" * 32)
            replaced = True
    assert replaced
    with pytest.raises(VerificationError):
        verify_provenance(result, root, addr_size=20)
    cole.close()


def test_bloom_tamper_changes_commitment(tmp_path):
    directory = str(tmp_path / "b")
    cole, _pool = build_chain(directory)
    run = cole.levels[-1].all_runs()[0]
    before = run.commitment()
    run.bloom.add(b"\x99" * 20)
    assert run.commitment() != before  # blooms are bound into Hstate (§4)
    cole.close()


def test_background_merge_failure_names_run_and_chains_cause(tmp_path, monkeypatch):
    """A crashed merge thread surfaces at the next checkpoint as a
    StorageError naming the run being built, chained to the root cause."""
    from repro.core.run import Run

    directory = str(tmp_path / "bg")
    cole = Cole(directory, make_params(async_merge=True))
    rng = random.Random(19)
    pool = [rng.randbytes(20) for _ in range(20)]

    def run_until(predicate, start_blk, max_blocks=200):
        for blk in range(start_blk, start_blk + max_blocks):
            cole.begin_block(blk)
            for _ in range(5):
                cole.put(rng.choice(pool), rng.randbytes(32))
            cole.commit_block()
            if predicate():
                return blk + 1
        raise AssertionError("workload never reached the wanted state")

    next_blk = run_until(lambda: cole.mem_pending is not None, 1)
    cole.wait_for_merges()

    original_build = Run.build
    monkeypatch.setattr(
        Run, "build", classmethod(lambda cls, *a, **k: (_ for _ in ()).throw(OSError("disk full")))
    )
    # Drive commits until a checkpoint waits on the poisoned background
    # build and surfaces it.
    with pytest.raises(StorageError) as excinfo:
        run_until(lambda: False, next_blk)
    message = str(excinfo.value)
    assert "L" in message and "failed" in message  # names the run
    assert isinstance(excinfo.value.__cause__, OSError)

    # The engine can quiesce once the fault clears.
    monkeypatch.setattr(Run, "build", original_build)
    if cole.mem_pending is not None and cole.mem_pending.future.exception():
        cole.mem_pending = None
    for level in cole.levels:
        if level.pending is not None and level.pending.future.exception():
            level.pending = None
    cole.close()


@pytest.mark.parametrize("failing_level", [1, 2], ids=["l0-flush", "level-2-merge"])
def test_inline_build_failure_leaves_its_step_unapplied(tmp_path, monkeypatch, failing_level):
    """COLE waits on a build before its checkpoint moves anything: a
    failing build raises out of ``commit_block`` (same error as COLE*'s)
    with that step unapplied, the manifest on disk untouched, every
    address still answering, and the retry succeeding.  A flush that
    landed before a failing level merge stands — it is published first on
    purpose, to drop the drained tree before the merges."""
    from repro.core.run import Run

    directory = str(tmp_path / "inline")
    cole = Cole(directory, make_params())
    rng = random.Random(23)
    pool = [rng.randbytes(20) for _ in range(20)]
    model = {}

    def fill_block(blk):
        cole.begin_block(blk)
        for _ in range(5):
            addr = rng.choice(pool)
            model[addr] = rng.randbytes(32)
            cole.put(addr, model[addr])

    def layout():
        return [
            ([run.name for run in level.writing.runs], [run.name for run in level.merging.runs])
            for level in cole.levels
        ]

    def manifest_bytes():
        with open(os.path.join(directory, "MANIFEST.json"), "rb") as handle:
            return handle.read()

    # Stop before the commit whose walk flushes L0 and merges level 1.
    blk = 1
    fill_block(blk)
    while not (cole.needs_cascade() and len(cole.levels) >= 2
               and len(cole.levels[0].writing) == cole.params.size_ratio - 1):
        cole.commit_block()
        blk += 1
        fill_block(blk)
    mem, groups, manifest = cole.mem_writing, layout(), manifest_bytes()
    files, root = sorted(cole.workspace.list_files()), cole.root_digest()

    original_build = Run.build.__func__

    def failing(cls, workspace, name, level, *args):
        if level == failing_level:
            raise OSError("disk full")
        return original_build(cls, workspace, name, level, *args)

    monkeypatch.setattr(Run, "build", classmethod(failing))
    with pytest.raises(StorageError) as excinfo:
        cole.commit_block()
    assert f"building run L{failing_level}_" in str(excinfo.value)
    assert f"(level {failing_level}) failed" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, OSError)
    monkeypatch.undo()

    assert manifest_bytes() == manifest
    assert cole._pending_merges() == []
    if failing_level == 1:  # nothing moved at all
        assert cole.mem_writing is mem
        assert layout() == groups
        assert sorted(cole.workspace.list_files()) == files
        assert cole.root_digest() == root
    else:  # the flush stands, level 1's switch and merge never happened
        flushed = cole.levels[0].writing.runs[-1]
        assert len(cole.mem_writing) == 0
        groups[0][0].append(flushed.name)
        assert layout() == groups
        assert [name for name in cole.workspace.list_files() if name not in files] == sorted(
            name for name in cole.workspace.list_files() if name.startswith(flushed.name)
        )
    for addr in pool:
        assert cole.get(addr) == model.get(addr)

    # The retry — this commit again, or the next walk — completes it.
    cole.commit_block(force_cascade=True)
    assert manifest_bytes() != manifest
    assert len(cole.levels[0].writing) == 0 and len(cole.levels[1].writing) >= 1
    for blk in range(blk + 1, blk + 30):
        fill_block(blk)
        cole.commit_block()
    for addr in pool:
        assert cole.get(addr) == model.get(addr)
    assert all(not level.merging.runs for level in cole.levels)
    cole.close()


# =============================================================================
# WAL torn tails: every way a crash can mangle the log's end
# =============================================================================

def build_wal_store(directory, blocks=5, puts_per_block=10):
    """A served-store stand-in: engine + WAL fed the same put stream."""
    from repro.wal import WriteAheadLog

    cole = Cole(directory, make_params(async_merge=True))
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    rng = random.Random(41)
    written = []
    for blk in range(1, blocks + 1):
        cole.begin_block(blk)
        for _ in range(puts_per_block):
            addr, value = rng.randbytes(20), rng.randbytes(32)
            cole.put(addr, value)
            wal.append_put(addr, value, blk)
            written.append((addr, blk, value))
        root = cole.commit_block()
        wal.append_commit(blk, root)
    wal.sync()
    return cole, wal, written


def recover_wal_store(directory):
    from repro.wal import WriteAheadLog, replay_wal

    cole = Cole(directory, make_params(async_merge=True))
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    stats = replay_wal(cole, wal)
    return cole, wal, stats


def wal_segment_paths(directory):
    seg_dir = os.path.join(directory, "wal", "shard-00")
    return [os.path.join(seg_dir, name) for name in sorted(os.listdir(seg_dir))]


def test_wal_truncated_record_recovers_clean_prefix(tmp_path):
    directory = str(tmp_path / "walt")
    cole, wal, written = build_wal_store(directory)
    live_root = cole.root_digest()
    cole.workspace.close()
    wal.close()
    # Tear the last record: keep its header, lose the body's tail.
    [path] = wal_segment_paths(directory)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 11)
    reopened, wal2, stats = recover_wal_store(directory)
    # The torn record was the last COMMIT marker; every put survived.
    for addr, blk, value in written:
        assert reopened.get_at(addr, blk) == value
    assert reopened.root_digest() == live_root
    wal2.close()
    reopened.close()


def test_wal_corrupted_checksum_recovers_clean_prefix(tmp_path):
    directory = str(tmp_path / "walc")
    cole, wal, written = build_wal_store(directory)
    cole.workspace.close()
    wal.close()
    # Flip a byte near the tail: the scan must stop at the corrupt
    # record and recovery must still restore the clean prefix before it.
    from repro.wal import scan_records

    [path] = wal_segment_paths(directory)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[len(data) - 20] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    clean_prefix = scan_records(bytes(data))
    assert clean_prefix.anomaly == "bad checksum"
    reopened, wal2, stats = recover_wal_store(directory)
    # Every block before the corrupted tail record survives in full.
    last_blk = max(blk for _addr, blk, _value in written)
    for addr, blk, value in written:
        if blk < last_blk:
            assert reopened.get_at(addr, blk) == value
    wal2.close()
    reopened.close()


def test_wal_empty_segment_recovers_clean(tmp_path):
    directory = str(tmp_path / "wale")
    cole, wal, written = build_wal_store(directory)
    live_root = cole.root_digest()
    cole.workspace.close()
    wal.close()
    # A crash right after rotation leaves a zero-byte segment behind.
    seg_dir = os.path.join(directory, "wal", "shard-00")
    open(os.path.join(seg_dir, "seg-00000099.wal"), "wb").close()
    reopened, wal2, stats = recover_wal_store(directory)
    for addr, blk, value in written:
        assert reopened.get_at(addr, blk) == value
    assert reopened.root_digest() == live_root
    wal2.close()
    reopened.close()


def test_recovery_after_partial_run_files(tmp_path):
    directory = str(tmp_path / "p")
    cole, pool = build_chain(directory, blocks=40)
    cole.close()
    # A torn merge left one orphan file of a three-file run.
    with open(os.path.join(directory, "L2_77777777.idx"), "wb") as handle:
        handle.write(b"\x00" * 100)
    reopened = Cole(directory, make_params())
    assert "L2_77777777.idx" not in set(reopened.workspace.list_files())
    # And the store still serves reads.
    assert any(reopened.get(addr) is not None for addr in pool)
    reopened.close()
