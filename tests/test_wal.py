"""Unit tests for the write-ahead log: records, segments, truncation."""

import json
import os

import pytest

from repro.common.errors import StorageError
from repro.wal import (
    RecordType,
    WriteAheadLog,
    encode_commit,
    encode_puts,
    scan_records,
)


def addr_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 5


def value_of(n: int) -> bytes:
    return n.to_bytes(4, "big") * 6


# =============================================================================
# record framing
# =============================================================================

def test_record_round_trip_puts_and_commit():
    items = [(addr_of(1), value_of(1)), (addr_of(2), b"")]
    data = encode_puts(7, items) + encode_commit(7, b"\xab" * 32)
    result = scan_records(data)
    assert not result.torn
    puts, commit = result.records
    assert puts.type == RecordType.PUTS
    assert puts.height == 7
    assert list(puts.items) == items
    assert commit.type == RecordType.COMMIT
    assert commit.height == 7
    assert commit.root == b"\xab" * 32


def test_scan_stops_at_torn_header():
    data = encode_puts(1, [(addr_of(1), value_of(1))])
    result = scan_records(data + b"\x00\x01\x02")  # 3 stray bytes
    assert len(result.records) == 1
    assert result.anomaly == "torn header"
    assert result.clean_bytes == len(data)


def test_scan_stops_at_torn_body():
    data = encode_puts(1, [(addr_of(1), value_of(1))])
    result = scan_records(data + data[: len(data) - 5])
    assert len(result.records) == 1
    assert result.anomaly == "torn body"


def test_scan_stops_at_bad_checksum():
    data = bytearray(
        encode_puts(1, [(addr_of(1), value_of(1))])
        + encode_puts(2, [(addr_of(2), value_of(2))])
    )
    data[-1] ^= 0xFF  # corrupt the second record's body
    result = scan_records(bytes(data))
    assert len(result.records) == 1
    assert result.anomaly == "bad checksum"


def test_scan_stops_at_impossible_length():
    data = encode_puts(1, [(addr_of(1), value_of(1))])
    garbage = b"\x00\x00\x00\x00" + b"\xff\xff\xff\xff" + b"junk"
    result = scan_records(data + garbage)
    assert len(result.records) == 1
    assert result.anomaly == "impossible length"


def test_scan_empty_is_clean():
    result = scan_records(b"")
    assert result.records == []
    assert not result.torn


# =============================================================================
# the log
# =============================================================================

def test_append_sync_lsn_contract(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    lsn1 = wal.append_put(addr_of(1), value_of(1), height=1)
    lsn2 = wal.append_put(addr_of(2), value_of(2), height=1)
    assert lsn2 > lsn1
    assert wal.synced_lsn < lsn1  # nothing durable yet
    synced = wal.sync()
    assert synced >= lsn2
    assert wal.synced_lsn == synced
    wal.close()


def test_scan_returns_appended_records(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append_put(addr_of(1), value_of(1), height=3)
    wal.append_puts([(addr_of(2), value_of(2)), (addr_of(3), value_of(3))], height=4)
    wal.append_commit(4, b"\x01" * 32)
    records = wal.scan()
    assert [record.height for record in records] == [3, 4, 4]
    assert records[2].type == RecordType.COMMIT
    wal.close()


def test_segment_rotation_and_truncation(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"), segment_max_bytes=256)
    for height in range(1, 11):
        wal.append_put(addr_of(height), value_of(height), height=height)
    wal.sync()
    assert wal.live_segments() > 1
    before = wal.live_segments()
    # Nothing is covered by checkpoint 0...
    assert wal.truncate(0) == 0
    # ...but a checkpoint at height 5 covers the early segments.
    deleted = wal.truncate(5)
    assert deleted > 0
    assert wal.live_segments() == before - deleted
    # Surviving records are exactly the ones above... or straddling.
    records = wal.scan()
    assert records  # the tail is still there
    assert max(record.height for record in records) == 10
    wal.close()


def test_truncate_unlinks_outside_the_append_lock(tmp_path, monkeypatch):
    """Unlinking an fsynced segment can take tens of milliseconds on a
    discard-mounted disk: an append from another thread must not wait
    behind it."""
    import threading
    import time

    wal = WriteAheadLog(str(tmp_path / "wal"), segment_max_bytes=256)
    for height in range(1, 11):
        wal.append_put(addr_of(height), value_of(height), height=height)
    wal.sync()
    real_remove = os.remove
    removing = threading.Event()

    def slow_remove(path):
        removing.set()
        time.sleep(0.5)
        real_remove(path)

    monkeypatch.setattr(os, "remove", slow_remove)
    truncation = threading.Thread(target=wal.truncate, args=(5,))
    truncation.start()
    assert removing.wait(timeout=10.0)
    started = time.perf_counter()
    wal.append_put(addr_of(11), value_of(11), height=11)
    elapsed = time.perf_counter() - started
    truncation.join(timeout=10.0)
    monkeypatch.undo()
    assert elapsed < 0.05
    assert max(record.height for record in wal.scan()) == 11
    wal.close()


def test_failed_unlink_keeps_the_segment_live_for_the_next_truncate(tmp_path, monkeypatch):
    wal = WriteAheadLog(str(tmp_path / "wal"), segment_max_bytes=256)
    for height in range(1, 11):
        wal.append_put(addr_of(height), value_of(height), height=height)
    wal.sync()
    before = wal.live_segments()
    files = sorted(os.listdir(wal.directory))
    real_remove = os.remove
    failures = [OSError("injected unlink failure")]

    def failing_remove(path):
        if failures:
            raise failures.pop()
        real_remove(path)

    monkeypatch.setattr("repro.wal.log.os.remove", failing_remove)
    with pytest.raises(OSError, match="injected"):
        wal.truncate(5)
    assert sorted(os.listdir(wal.directory)) == files
    assert wal.live_segments() == before
    assert wal.truncated_segments == 0
    deleted = wal.truncate(5)
    assert deleted > 0
    assert wal.truncated_segments == deleted
    assert wal.live_segments() == before - deleted
    assert len(os.listdir(wal.directory)) == len(files) - deleted
    assert wal.truncate(5) == 0
    wal.close()


def test_reopen_trims_torn_tail_and_appends_after_it(tmp_path):
    directory = str(tmp_path / "wal")
    wal = WriteAheadLog(directory)
    wal.append_put(addr_of(1), value_of(1), height=1)
    wal.append_put(addr_of(2), value_of(2), height=2)
    wal.close()
    # Tear the tail mid-record.
    [seg] = [name for name in os.listdir(directory) if name.endswith(".wal")]
    path = os.path.join(directory, seg)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 3)
    reopened = WriteAheadLog(directory)
    assert reopened.trimmed_tails == 1
    reopened.append_put(addr_of(3), value_of(3), height=3)
    reopened.sync()
    records = reopened.scan()
    # The torn record is gone; the new append is readable after the trim.
    assert [record.height for record in records] == [1, 3]
    reopened.close()


def test_format_1_directory_is_refused(tmp_path):
    """A per-shard (format 1) WAL must not open as an empty log: that
    would silently drop every acked write it holds."""
    directory = tmp_path / "wal"
    (directory / "shard-00").mkdir(parents=True)
    (directory / "WAL.json").write_text(json.dumps({"format": 1, "num_shards": 1}))
    (directory / "shard-00" / "seg-00000001.wal").write_bytes(
        encode_puts(1, [(addr_of(1), value_of(1))])
    )
    with pytest.raises(StorageError, match="format 1"):
        WriteAheadLog(str(directory))
    assert not any(name.endswith(".wal") for name in os.listdir(directory))


def test_bad_parameters_rejected(tmp_path):
    with pytest.raises(StorageError):
        WriteAheadLog(str(tmp_path / "a"), sync_policy="sometimes")
    with pytest.raises(StorageError):
        WriteAheadLog(str(tmp_path / "c"), segment_max_bytes=0)


def test_append_after_close_rejected(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.close()
    with pytest.raises(StorageError, match="closed"):
        wal.append_put(addr_of(1), value_of(1), height=1)


def test_close_is_durable_and_reopen_resumes_sequence(tmp_path):
    directory = str(tmp_path / "wal")
    wal = WriteAheadLog(directory, segment_max_bytes=128)
    for height in range(1, 6):
        wal.append_put(addr_of(height), value_of(height), height=height)
    segments = wal.live_segments()
    wal.close()
    reopened = WriteAheadLog(directory, segment_max_bytes=128)
    records = reopened.scan()
    assert [record.height for record in records] == [1, 2, 3, 4, 5]
    reopened.append_put(addr_of(9), value_of(9), height=9)
    reopened.sync()
    assert reopened.live_segments() >= segments
    records = reopened.scan()
    assert records[-1].height == 9
    reopened.close()


def test_concurrent_appends_and_syncs_never_overclaim(tmp_path):
    """Parallel append+sync (the `always` policy's shape) must serialize
    fsync passes: every returned LSN is really covered, rotated handles
    are never fsynced after close, and the final synced mark is exact."""
    import threading

    wal = WriteAheadLog(str(tmp_path / "wal"), segment_max_bytes=512)
    errors = []

    def worker(worker_id):
        try:
            for i in range(25):
                n = worker_id * 100 + i
                lsn = wal.append_put(addr_of(n), value_of(n), height=1 + i)
                synced = wal.sync()
                assert synced >= lsn
        except Exception as exc:  # noqa: BLE001 — surface in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert wal.synced_lsn == 6 * 25
    records = wal.scan()
    assert sum(len(record.items) for record in records) == 6 * 25
    wal.close()


def test_policy_none_needs_no_sync_for_scan_and_truncate(tmp_path):
    wal = WriteAheadLog(
        str(tmp_path / "wal"), sync_policy="none", segment_max_bytes=128
    )
    for height in range(1, 9):
        wal.append_put(addr_of(height), value_of(height), height=height)
    assert wal.syncs == 0
    assert wal.live_segments() > 1
    assert wal.truncate(8) > 0  # sealed segments settle without an fsync
    wal.close()
    assert wal.syncs == 0
