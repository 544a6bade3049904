"""Streaming export / import of keyspace slices (the REPX format).

The headline contract: a write-once workload, exported over the full
address range at the source's current height and replayed into a fresh
engine, reproduces the source's root digest exactly — on the sync,
async, and sharded engines.  Everything else defends the stream format:
every frame and the trailer are checksummed, so truncation, bit flips,
and lost frames all fail loudly instead of importing silently-wrong
state.
"""

import hashlib
import io
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.common.errors import IntegrityError, StorageError
from repro.common.params import ColeParams, ShardParams, SystemParams
from repro.core import Cole, export_slice, import_slice, iter_triples, read_header
from repro.sharding import ShardedCole

SYSTEM = SystemParams(addr_size=20, value_size=24)
PARAMS = ColeParams(system=SYSTEM, mem_capacity=64, size_ratio=4)


def addr_of(i: int) -> bytes:
    return hashlib.sha256(f"exp-{i}".encode()).digest()[:20]


def value_of(i: int, blk: int) -> bytes:
    return hashlib.sha256(f"val-{i}-{blk}".encode()).digest()[:24]


def load_write_once(engine, blocks: int = 20, per_block: int = 15) -> dict:
    """Fresh keys every block, applied in canonical sorted order — the
    round-trip equality contract's preconditions."""
    model = {}
    n = 0
    for blk in range(1, blocks + 1):
        batch = {}
        for _ in range(per_block):
            batch[addr_of(n)] = value_of(n, blk)
            n += 1
        engine.begin_block(blk)
        engine.put_many(sorted(batch.items()))
        engine.commit_block()
        model.update(batch)
    engine.wait_for_merges()
    return model


def make_engine(directory: str, shape: str):
    if shape == "sync":
        return Cole(directory, PARAMS)
    if shape == "async":
        return Cole(directory, PARAMS.with_async())
    return ShardedCole(
        directory, ShardParams(cole=PARAMS.with_async(), num_shards=2)
    )


# =============================================================================
# round-trip root equality — the export/import oracle
# =============================================================================

@pytest.mark.parametrize("shape", ["sync", "async", "sharded"])
def test_round_trip_reproduces_source_root(tmp_path, shape):
    source = make_engine(str(tmp_path / "src"), shape)
    model = load_write_once(source)
    source_root = source.root_digest()

    stream = io.BytesIO()
    stats = export_slice(source, stream)
    source.close()
    assert stats["triples"] == len(model)

    stream.seek(0)
    target = make_engine(str(tmp_path / "dst"), shape)
    result = import_slice(target, stream)
    target.wait_for_merges()
    assert result["triples"] == len(model)
    assert target.root_digest() == source_root
    for a, expected in sorted(model.items())[:32]:
        assert target.get(a) == expected
    target.close()


def test_header_records_the_slice(tmp_path):
    engine = Cole(str(tmp_path), PARAMS)
    load_write_once(engine, blocks=6)
    stream = io.BytesIO()
    export_slice(engine, stream)
    stream.seek(0)
    header = read_header(stream)
    assert header["version"] == 1
    assert header["addr_size"] == 20
    assert header["at_blk"] == 6
    assert header["source_root"] == engine.root_digest().hex()
    assert header["addr_low"] == "00" * 20
    assert header["addr_high"] == "ff" * 20
    engine.close()


# =============================================================================
# slicing: by height and by address range
# =============================================================================

def test_at_blk_exports_historical_versions(tmp_path):
    engine = Cole(str(tmp_path), PARAMS)
    target = addr_of(0)
    for blk in (1, 2, 3):
        engine.begin_block(blk)
        engine.put(target, value_of(0, blk))
        engine.commit_block()
    stream = io.BytesIO()
    export_slice(engine, stream, at_blk=2)
    stream.seek(0)
    triples = list(iter_triples(stream, read_header(stream)))
    engine.close()
    assert triples == [(target, 2, value_of(0, 2))]


def test_addr_bounds_restrict_the_slice(tmp_path):
    engine = Cole(str(tmp_path), PARAMS)
    model = load_write_once(engine, blocks=8)
    addresses = sorted(model)
    low, high = addresses[10], addresses[40]
    stream = io.BytesIO()
    export_slice(engine, stream, addr_low=low, addr_high=high)
    stream.seek(0)
    triples = list(iter_triples(stream, read_header(stream)))
    engine.close()
    expected = [a for a in addresses if low <= a <= high]
    assert [t[0] for t in triples] == expected
    assert all(model[a] == v for a, _, v in triples)


def test_small_scan_pages_change_nothing(tmp_path):
    # Page size shapes the frame boundaries, never the decoded slice.
    engine = Cole(str(tmp_path), PARAMS)
    load_write_once(engine, blocks=8)
    whole, paged = io.BytesIO(), io.BytesIO()
    export_slice(engine, whole)
    export_slice(engine, paged, page=7)
    engine.close()
    whole.seek(0)
    paged.seek(0)
    assert list(iter_triples(whole, read_header(whole))) == list(
        iter_triples(paged, read_header(paged))
    )


# =============================================================================
# corruption: every byte of the stream is accounted for
# =============================================================================

def exported_stream(tmp_path) -> bytes:
    engine = Cole(str(tmp_path / "src"), PARAMS)
    load_write_once(engine, blocks=6)
    stream = io.BytesIO()
    export_slice(engine, stream)
    engine.close()
    return stream.getvalue()


def consume(data: bytes) -> int:
    stream = io.BytesIO(data)
    return sum(1 for _ in iter_triples(stream, read_header(stream)))


def test_truncation_detected(tmp_path):
    data = exported_stream(tmp_path)
    for cut in (len(data) - 1, len(data) // 2, 10):
        with pytest.raises(IntegrityError):
            consume(data[:cut])


def test_bit_flip_detected(tmp_path):
    data = exported_stream(tmp_path)
    # Flip one byte in the middle of the frame region (past the header).
    victim = len(data) // 2
    corrupted = bytearray(data)
    corrupted[victim] ^= 0x40
    with pytest.raises(IntegrityError):
        consume(bytes(corrupted))


def test_bad_magic_rejected(tmp_path):
    data = exported_stream(tmp_path)
    with pytest.raises(IntegrityError, match="magic"):
        consume(b"NOPE" + data[4:])


def test_import_rejects_addr_size_mismatch(tmp_path):
    data = exported_stream(tmp_path)
    other = Cole(
        str(tmp_path / "other"),
        ColeParams(system=SystemParams(addr_size=32, value_size=24)),
    )
    with pytest.raises(StorageError, match="addr_size"):
        import_slice(other, io.BytesIO(data))
    other.close()


# =============================================================================
# property: the round trip holds across value sizes and export heights
# =============================================================================

@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    value_size=st.integers(min_value=8, max_value=48),
    blocks=st.integers(min_value=1, max_value=12),
    at_frac=st.floats(min_value=0.2, max_value=1.0),
)
def test_export_frames_round_trip_property(tmp_path_factory, value_size, blocks, at_frac):
    """Whatever the value geometry and export height, the stream decodes
    to exactly the surviving versions at that height."""
    root = tmp_path_factory.mktemp("prop")
    params = ColeParams(
        system=SystemParams(addr_size=20, value_size=value_size),
        mem_capacity=16,
        size_ratio=2,
    )
    engine = Cole(str(root / "ws"), params)
    model_at = {}
    at_blk = max(1, int(blocks * at_frac))
    n = 0
    for blk in range(1, blocks + 1):
        batch = {}
        for _ in range(5):
            key = n % 9  # overwrites across heights on purpose
            a = addr_of(key)
            batch[a] = hashlib.sha256(
                f"pv-{key}-{blk}".encode()
            ).digest()[:value_size].ljust(value_size, b"\0")
            n += 1
        engine.begin_block(blk)
        engine.put_many(sorted(batch.items()))
        engine.commit_block()
        if blk <= at_blk:
            for a, v in batch.items():
                model_at[a] = (blk, v)
    stream = io.BytesIO()
    export_slice(engine, stream, at_blk=at_blk, page=4)
    engine.close()
    stream.seek(0)
    triples = list(iter_triples(stream, read_header(stream)))
    assert [t[0] for t in triples] == sorted(model_at)
    for a, blk, v in triples:
        assert model_at[a] == (blk, v)


# =============================================================================
# the CLI surface
# =============================================================================

def build_durable_workspace(directory: str):
    """A WAL-backed workspace: a cold reopen replays every write, so the
    CLI round trip can reproduce the exported root."""
    from repro.wal import WriteAheadLog

    params = ColeParams(async_merge=True, mem_capacity=512)
    engine = Cole(directory, params)
    wal = WriteAheadLog(os.path.join(directory, "wal"))
    n = 0
    for blk in range(1, 13):
        batch = []
        for _ in range(24):
            a = hashlib.sha256(f"cli-{n}".encode()).digest()[
                : params.system.addr_size
            ]
            v = hashlib.sha256(f"cval-{n}".encode()).digest()[
                : params.system.value_size
            ].ljust(params.system.value_size, b"\0")
            batch.append((a, v))
            n += 1
        batch.sort()
        engine.begin_block(blk)
        wal.append_puts(batch, blk)
        engine.put_many(batch)
        wal.append_commit(blk, bytes(engine.commit_block()))
    engine.wait_for_merges()
    root = engine.root_digest()
    wal.close()
    engine.close()
    return root


def test_cli_export_import_round_trip(tmp_path, capsys):
    workspace = str(tmp_path / "ws")
    live_root = build_durable_workspace(workspace)
    out_file = str(tmp_path / "slice.repx")
    assert main(["export", "-w", workspace, "-o", out_file]) == 0
    out = capsys.readouterr().out
    assert live_root.hex() in out
    assert os.path.getsize(out_file) > 0

    dest = str(tmp_path / "imported")
    assert main(["import", out_file, "-w", dest]) == 0
    out = capsys.readouterr().out
    assert "root digest matches the export header" in out


def test_cli_import_refuses_nonempty_destination(tmp_path, capsys):
    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    out_file = str(tmp_path / "slice.repx")
    assert main(["export", "-w", workspace, "-o", out_file]) == 0
    assert main(["import", out_file, "-w", workspace]) == 1
    assert "not empty" in capsys.readouterr().err


def test_cli_export_bad_bound_rejected(tmp_path, capsys):
    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    assert (
        main(
            [
                "export",
                "-w",
                workspace,
                "-o",
                str(tmp_path / "x.repx"),
                "--low",
                "zz",
            ]
        )
        == 1
    )
    assert "hex" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "x.repx")


def test_failed_export_leaves_the_previous_export_intact(tmp_path, capsys, monkeypatch):
    import repro.core.export

    workspace = str(tmp_path / "ws")
    build_durable_workspace(workspace)
    out = tmp_path / "out" / "slice.repx"
    out.parent.mkdir()
    export = ["export", "-w", workspace, "-o", str(out)]
    assert main(export) == 0
    before = out.read_bytes()

    def fails_midway(engine, stream, **kwargs):
        stream.write(b"REPX half a stream")
        raise StorageError("device full")

    monkeypatch.setattr(repro.core.export, "export_slice", fails_midway)
    assert main(export) == 1
    assert "Error: StorageError: device full" in capsys.readouterr().err
    monkeypatch.undo()
    assert out.read_bytes() == before
    assert os.listdir(out.parent) == ["slice.repx"]  # no temp file left

    # The success path still overwrites and round-trips to the same root.
    assert main(export) == 0
    assert out.read_bytes() == before
    assert main(["import", str(out), "-w", str(tmp_path / "imported")]) == 0
    assert "root digest matches the export header" in capsys.readouterr().out
