"""Hostile input: every byte a peer or a disk hands us decodes to a value
or fails with a taxonomy error.

Each format that decodes through :class:`repro.common.codec.Cursor` — a
request body per op, a response body per op, a WAL ``PUTS`` and
``COMMIT`` record, a small REPX stream — is fed every truncation and
every single-bit flip of one valid encoding.  The decoders must return or
raise a ``ReproError``; ``scan_records`` must report an anomaly instead
of raising.  Checksums stop most flips before a decoder sees them, so
each checksummed format is also swept with its checksums recomputed
around the flipped bytes.

The PROV blob is the proof codec's (:mod:`repro.core.proofs`): real
proofs of COLE and COLE* round-trip through it, every malformed blob —
a pickle among them — is refused with ``StorageError``, and every bit
flip of a real blob, decoded and then verified, gives the original
versions or raises.  The hex goldens pin the WAL record format.  The
baselines' own formats (an LSM sstable page, an MPT node) are swept with
every truncation.

A write whose address or value is not of the store's length is refused
wherever it enters — PUT, MULTI_PUT, ``Cole.put_many`` — before it is
logged, buffered or acked; one an older build logged replays as skipped.
"""

import asyncio
import io
import os
import struct
import time
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloomfilter import BloomFilter
from repro.common.codec import Cursor
from repro.common.errors import ReproError, StorageError
from repro.common.params import ColeParams, SystemParams
from repro.core import Cole, export_slice, iter_triples, read_header, verify_provenance
from repro.core import proofs
from repro.core.proofs import (
    MAX_PROOF_DEPTH, MemProofItem, RunNegativeItem, RunProofItem, StubItem, decode_prov_answer,
    encode_prov_answer,
)
from repro.kvstore.sstable import _decode_page, _encode_record
from repro.mpt.nibbles import pack_nibbles
from repro.mpt.node import BranchNode, ExtensionNode, LeafNode, decode_node, encode_node
from repro.server import ServerClient, ServerConfig, ServerThread, protocol
from repro.server.protocol import OPS, Op, RootInfo
from repro.wal import WriteAheadLog, replay_wal
from repro.wal.record import encode_commit, encode_puts, scan_records

A, B, V = bytes(range(20)), bytes(20), b"value"
SMALL = ColeParams(system=SystemParams(addr_size=4, value_size=4))


def mutations(data: bytes):
    """Every proper prefix of ``data``, then ``data`` with each one bit flipped."""
    for cut in range(len(data)):
        yield data[:cut]
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        yield bytes(flipped)


def decodes_or_raises_taxonomy(decode, data: bytes) -> None:
    try:
        decode(data)
    except ReproError:
        pass


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    """One put in one block: its PROV blob and its REPX stream."""
    engine = Cole(str(tmp_path_factory.mktemp("tiny")), SMALL)
    engine.begin_block(1)
    engine.put(b"\x00\x00\x00\x01", b"vvvv")
    engine.commit_block()
    result, root = engine.prov_query_anchored(b"\x00\x00\x00\x01", 1, 1)
    stream = io.BytesIO()
    export_slice(engine, stream)
    engine.close()
    return encode_prov_answer(result, root), stream.getvalue()


# =============================================================================
# wire frames
# =============================================================================

REQUEST_ARGS = {
    Op.PUT: (A, V),
    Op.GET: (A,),
    Op.GET_AT: (A, 7),
    Op.PROV: (A, 1, 9),
    Op.REPL_SUBSCRIBE: (5,),
    Op.SCAN: (A, B, 7, 10),
    Op.MULTI_GET: ([A, B],),
    Op.MULTI_PUT: ([(A, V), (B, b"")],),
}


def test_every_request_decodes_or_raises_a_taxonomy_error():
    for op, spec in OPS.items():
        body = spec.encode(*REQUEST_ARGS.get(op, ()))[4:]
        assert protocol.decode_request(body)[0] == op
        for mutated in mutations(body):
            decodes_or_raises_taxonomy(protocol.decode_request, mutated)


def response_bodies(prov_blob: bytes) -> dict:
    root = protocol.encode_root_response(RootInfo(bytes(range(32)), 3, 9))
    json_blob = protocol.encode_blob_response(b'{"a": [1, 2]}')
    return {
        Op.PUT: protocol.encode_height_response(9),
        Op.GET: protocol.encode_value_response(V),
        Op.GET_AT: protocol.encode_value_response(V),
        Op.PROV: protocol.encode_blob_response(prov_blob),
        Op.ROOT: root,
        Op.STATS: json_blob,
        Op.FLUSH: root,
        Op.REPL_SUBSCRIBE: protocol.encode_repl_handshake(4),
        Op.SCAN: protocol.encode_scan_response([(A, 3, V), (B, 4, b"")], B, 9),
        Op.MULTI_GET: protocol.encode_multi_get_response([V, None]),
        Op.MULTI_PUT: protocol.encode_height_response(9),
        Op.METRICS: protocol.encode_blob_response(b"# TYPE x counter\nx 1\n"),
    }


def test_every_response_decodes_or_raises_a_taxonomy_error(tiny_store):
    bodies = response_bodies(tiny_store[0])
    assert bodies.keys() == OPS.keys()
    for op, frame in bodies.items():
        decode = OPS[op].decode
        decode(frame[4:])
        for mutated in mutations(frame[4:]):
            decodes_or_raises_taxonomy(decode, mutated)


# =============================================================================
# WAL records
# =============================================================================

PUTS_RECORD = encode_puts(7, [(b"\x0a" * 4, b"value"), (b"\xbb\xcc", b"")])
COMMIT_RECORD = encode_commit(7, bytes(range(32)))


@pytest.mark.parametrize("record", [PUTS_RECORD, COMMIT_RECORD], ids=["puts", "commit"])
def test_every_damaged_wal_record_is_an_anomaly(record):
    assert len(scan_records(record).records) == 1
    for mutated in list(mutations(record))[1:]:  # the empty prefix is a clean segment
        result = scan_records(mutated)
        assert result.records == [] and result.anomaly is not None
    # With its crc recomputed, a damaged body reaches the Cursor walk.
    for body in mutations(record[8:]):
        result = scan_records(struct.pack(">II", zlib.crc32(body), len(body)) + body)
        assert (len(result.records), result.anomaly) == (1, None) or (
            result.records == [] and result.anomaly is not None
        )


def test_wal_record_bytes_are_pinned():
    assert PUTS_RECORD.hex() == (
        "3d8e280c00000024" "01" "0000000000000007" "00000002"
        "0004" "0a0a0a0a" "00000005" "76616c7565" "0002" "bbcc" "00000000"
    )
    assert COMMIT_RECORD.hex() == (
        "952c017e0000002b" "02" "0000000000000007" "0020" + bytes(range(32)).hex()
    )


# =============================================================================
# REPX streams
# =============================================================================

def consume(data: bytes) -> list:
    stream = io.BytesIO(data)
    return list(iter_triples(stream, read_header(stream)))


def test_every_damaged_export_stream_decodes_or_raises(tiny_store):
    stream = tiny_store[1]
    assert len(consume(stream)) == 1
    for mutated in mutations(stream):
        decodes_or_raises_taxonomy(consume, mutated)
    # One frame after the header; rebuild it with every crc holding.
    head_end = 12 + int.from_bytes(stream[4:8], "big")
    payload = stream[head_end + 4:head_end + 4 + int.from_bytes(stream[head_end:head_end + 4], "big")]

    def framed(data):
        return struct.pack(">I", len(data)) + data + struct.pack(">I", zlib.crc32(data))

    for body in mutations(payload):
        rebuilt = stream[:head_end] + framed(body) + struct.pack(">IQI", 0, 1, zlib.crc32(body))
        decodes_or_raises_taxonomy(consume, rebuilt)


# =============================================================================
# PROV: the proof codec
# =============================================================================

def blob_of(value) -> bytes:
    """``value`` in the proof codec, whatever its shape."""
    out = [bytes([proofs.PROOF_CODEC_VERSION])]
    proofs._encode(value, out)
    return b"".join(out)


def decode_blob(blob: bytes):
    return protocol.decode_prov_response(protocol.encode_blob_response(blob)[4:])


@pytest.fixture(scope="module", params=[False, True], ids=["cole", "cole-star"])
def history(request, tmp_path_factory):
    """A store of 12 addresses (address 0 among them) written over 40
    blocks, open for provenance queries."""
    params = ColeParams(system=SystemParams(addr_size=4, value_size=4), mem_capacity=8,
                        size_ratio=2, async_merge=request.param)
    engine = Cole(str(tmp_path_factory.mktemp("history")), params)
    for blk in range(1, 41):
        engine.begin_block(blk)
        engine.put_many([(n.to_bytes(4, "big"), blk.to_bytes(4, "big")) for n in range(blk % 3, 12, 3)])
        engine.commit_block()
    yield engine
    engine.close()


@settings(max_examples=40, deadline=None)
@given(addr=st.integers(0, 12), low=st.integers(0, 41), span=st.integers(0, 41))
def test_real_proofs_round_trip_through_the_codec(history, addr, low, span):
    result, root = history.prov_query_anchored(addr.to_bytes(4, "big"), low, low + span)
    assert decode_prov_answer(encode_prov_answer(result, root)) == (result, root)


def test_a_negative_window_bound_round_trips(history):
    # Address 0 from block 0: the MB-tree window opens at key -1.
    result, root = history.prov_query_anchored(bytes(4), 0, 40)
    lows = [item.proof.low for item in result.proof.items if type(item) is MemProofItem]
    assert -1 in lows
    assert decode_blob(encode_prov_answer(result, root)) == (result, root)
    verify_provenance(result, root, addr_size=4)


@pytest.mark.parametrize("blob", [
    pytest.param(b"cos\nsystem\n(S'true'\ntR.", id="protocol-0-global-reduce"),
    pytest.param(b"\x80\x05\x8c\x02os\x94\x8c\x06system\x94\x93\x94"
                 b"\x8c\x04true\x94\x85\x94R\x94.", id="stack-global-reduce"),
    pytest.param(b"\x80\x05\x8c\x02os\x94\x8c\x06system\x94\x93\x94.", id="stack-global-only"),
])
def test_prov_blob_naming_os_system_is_refused_and_never_called(monkeypatch, blob):
    calls = []
    monkeypatch.setattr(os, "system", calls.append)
    with pytest.raises(StorageError):
        decode_blob(blob)
    assert calls == []


def test_every_flipped_prov_blob_verifies_the_same_or_raises(tiny_store):
    """Decode, then verify: a flip either leaves the verified versions as
    they were or raises a taxonomy error — never a built-in error from a
    proof of the wrong shape (a field retyped, an int widened)."""
    blob = tiny_store[0]
    result, root = decode_blob(blob)
    versions = verify_provenance(result, root, addr_size=4)
    assert versions == [(1, b"vvvv")]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        try:
            result, root = decode_blob(bytes(flipped))
            assert verify_provenance(result, root, addr_size=4) == versions, bit
        except ReproError:
            pass


@pytest.mark.parametrize("answer, reason", [
    pytest.param(7, "not a .ProvenanceResult", id="int"),
    pytest.param(b"\x00" * 32, "not a .ProvenanceResult", id="bytes"),
    pytest.param((None, bytes(32)), "not a .ProvenanceResult", id="no-result"),
    pytest.param((), "tuple of 0 is not a pair", id="empty-tuple"),
    pytest.param([StubItem(bytes(32)), bytes(32)], "not a .ProvenanceResult", id="list"),
])
def test_prov_blob_of_the_wrong_shape_is_refused(answer, reason):
    with pytest.raises(StorageError, match=reason):
        decode_blob(blob_of(answer))


def test_prov_blob_with_a_short_root_is_refused(tiny_store):
    result, _root = decode_prov_answer(tiny_store[0])
    with pytest.raises(StorageError, match="32-byte root"):
        decode_blob(blob_of((result, bytes(31))))


NONE, INT, BYTES, LIST, TUPLE = (bytes([tag]) for tag in range(5))


@pytest.mark.parametrize("body, reason", [
    pytest.param(NONE + NONE, "trailing", id="trailing-bytes"),
    pytest.param(LIST + struct.pack(">I", 2**32 - 1) + NONE, "exceeds the bytes left",
                 id="count-past-the-end"),
    pytest.param(TUPLE + struct.pack(">I", 2) + NONE + INT, "truncated", id="short-tuple"),
    pytest.param(BYTES + struct.pack(">I", 2**32 - 1), "truncated", id="bytes-past-the-end"),
    pytest.param(INT + b"\x02\x00\x05", "shortest form", id="int-leading-zero"),
    pytest.param(INT + b"\x02\xff\xff", "shortest form", id="int-leading-ones"),
    pytest.param(INT + b"\x00", "shortest form", id="int-empty"),
    pytest.param(bytes([255]), "unknown proof tag", id="unknown-tag"),
    pytest.param((LIST + struct.pack(">I", 1)) * (MAX_PROOF_DEPTH + 2) + NONE, "deeper than",
                 id="nesting-past-the-cap"),
    pytest.param((LIST + struct.pack(">I", 1)) * 100_000 + NONE, "deeper than",
                 id="nesting-bomb"),
])
def test_a_malformed_codec_blob_is_refused(body, reason):
    with pytest.raises(StorageError, match=reason):
        decode_blob(bytes([proofs.PROOF_CODEC_VERSION]) + body)


def _refusal_peak(tag: bytes, reason: str) -> int:
    """``tracemalloc``'s peak while a 1 MiB blob — one ``tag`` sequence
    of 2²⁰ ``None``s — is refused with ``reason``."""
    count = 2**20
    blob = bytes([proofs.PROOF_CODEC_VERSION]) + tag + struct.pack(">I", count) + NONE * count
    tracemalloc.start()
    try:
        with pytest.raises(StorageError, match=reason):
            decode_prov_answer(blob)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_list_of_nones_is_refused_at_the_first():
    """No proof list holds ``None``: a 1 MiB list of them would decode to
    8 MiB of pointers before the shape check refused it."""
    assert _refusal_peak(LIST, "holds a None") <= 2 * 2**20


def test_a_tuple_that_is_not_a_pair_is_refused_at_its_count():
    """Every tuple a proof holds is a pair: a tuple of 2²⁰ ``None``s is
    refused when its count is read, not after 8 MiB of pointers."""
    assert _refusal_peak(TUPLE, f"tuple of {2**20} is not a pair") <= 2 * 2**20


@pytest.mark.parametrize("version", [0, 2, 0x80])
def test_another_codec_version_is_refused(tiny_store, version):
    with pytest.raises(StorageError, match="version"):
        decode_blob(bytes([version]) + tiny_store[0][1:])


@pytest.mark.parametrize("value, size", [
    (0, 1), (-1, 1), (127, 1), (128, 2), (-128, 1), (-129, 2), (2**64 - 1, 9), (-(2**320), 41),
])
def test_signed_ints_take_their_shortest_form(value, size):
    blob = blob_of(value)
    assert blob[2] == size and len(blob) == 3 + size
    assert proofs._decode(Cursor(blob[1:]), 0) == value


def test_a_filter_with_more_hashes_than_bits_is_refused_at_once():
    # 12-byte header (8 bits, 2**32 - 1 hashes) and one all-ones byte:
    # probed in full it would step about 8 minutes before Hstate is read.
    forged = struct.pack(">III", 8, 2**32 - 1, 0) + b"\xff"
    item = RunNegativeItem(bloom_bytes=forged, merkle_root=bytes(32))
    started = time.perf_counter()
    with pytest.raises(ReproError):
        item.commitment((12345, 6789))
    assert time.perf_counter() - started < 0.5
    assert BloomFilter.parse_header(struct.pack(">III", 8, 8, 0) + b"\xff")  # as many as bits


def test_served_prov_still_verifies_against_its_root(tmp_path):
    params = ColeParams(system=SystemParams(addr_size=20, value_size=24), mem_capacity=16,
                        size_ratio=2)
    engine = Cole(str(tmp_path / "ws"), params)
    addrs = [n.to_bytes(4, "big") * 5 for n in range(40)]

    async def scenario(host, port):
        kinds = set()
        async with ServerClient(host, port) as client:
            for blk in range(12):
                await client.multi_put([(addr, bytes([blk]) * 24) for addr in addrs[blk::3]])
                await client.flush()
            info = await client.root()
            # Full history, an absent address, and the newest block only
            # (an early stop: older structures ship as stubs).
            for addr, low in ((addrs[0], 1), (b"\xee" * 20, 1), (addrs[11], info.height)):
                result, root = await client.prov(addr, low, info.height)
                assert root == info.digest
                verify_provenance(result, root, addr_size=20)
                kinds |= {type(item) for item in result.proof.items}
        return kinds

    with ServerThread(engine, config=ServerConfig()) as thread:
        kinds = asyncio.run(scenario(*thread.start()))
    engine.close()
    assert kinds == {MemProofItem, RunProofItem, RunNegativeItem, StubItem}


# =============================================================================
# writes of the wrong length
# =============================================================================

WIDE = ColeParams(system=SystemParams(addr_size=8, value_size=12), mem_capacity=16)
GOOD_ADDR, GOOD_VALUE = bytes(range(8)), bytes(range(12))


def wrong_lengths():
    """Every ``(address, value)`` with one side of each length from 0 to
    twice the right one, except the right one."""
    for size in range(2 * 8 + 1):
        if size != 8:
            yield bytes(size), GOOD_VALUE
    for size in range(2 * 12 + 1):
        if size != 12:
            yield GOOD_ADDR, bytes(size)


def test_a_served_write_of_the_wrong_length_is_refused_before_the_log(tmp_path):
    engine = Cole(str(tmp_path / "ws"), WIDE)
    wal = WriteAheadLog(str(tmp_path / "wal"))

    async def scenario(host, port):
        async with ServerClient(host, port) as client:
            await client.put(GOOD_ADDR, GOOD_VALUE)
            root = await client.flush()
            records = wal.stats()["records_appended"]
            for addr, value in wrong_lengths():
                for write in (client.put(addr, value),
                              client.multi_put([(bytes(8), GOOD_VALUE), (addr, value)])):
                    with pytest.raises(ReproError, match="must be 8 bytes and value 12"):
                        await write
                assert wal.stats()["records_appended"] == records
                assert await client.get(bytes(8)) is None  # a bad batch is refused whole
            assert await client.flush() == root  # nothing was buffered either

    with ServerThread(engine, config=ServerConfig(), wal=wal) as thread:
        asyncio.run(scenario(*thread.start()))
    wal.close()
    engine.close()


def test_the_engine_refuses_a_write_of_the_wrong_length(tmp_path):
    engine = Cole(str(tmp_path / "ws"), WIDE)
    engine.begin_block(1)
    engine.put_many([(GOOD_ADDR, GOOD_VALUE)])
    root = engine.root_digest()
    for item in wrong_lengths():
        with pytest.raises(ReproError, match="must be"):
            engine.put_many([item])
        assert engine.root_digest() == root
    engine.commit_block()
    engine.close()


def test_a_logged_write_of_the_wrong_length_replays_as_skipped(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal"))
    wal.append_puts([(GOOD_ADDR, GOOD_VALUE), (GOOD_ADDR[::-1], b"short")], 1)
    wal.close()
    engine = Cole(str(tmp_path / "ws"), WIDE)
    with WriteAheadLog(str(tmp_path / "wal")) as wal:
        stats = replay_wal(engine, wal)
    assert (stats.puts_replayed, stats.puts_skipped_invalid) == (1, 1)
    assert engine.get(GOOD_ADDR) == GOOD_VALUE
    engine.close()


# =============================================================================
# baseline formats: an sstable page, an MPT node
# =============================================================================

PAGE_RECORDS = [(b"key", b"value-bytes"), (b"gone", None), (b"k" * 20, b"v" * 33)]


def test_every_cut_inside_an_sstable_record_raises():
    """A page carries no record count, so a cut on a record boundary is a
    valid shorter page; so is a cut that leaves only zero bytes of the
    next record's key length, which reads as the zero padding every page
    ends with.  Every other cut raises."""
    page = b"".join(_encode_record(key, value) for key, value in PAGE_RECORDS)
    assert _decode_page(page) == _decode_page(page + bytes(3)) == PAGE_RECORDS
    starts = [0]
    for key, value in PAGE_RECORDS:
        starts.append(starts[-1] + len(_encode_record(key, value)))
    for cut in range(len(page)):
        whole = max(index for index, start in enumerate(starts) if start <= cut)
        if any(page[starts[whole] : cut]):
            with pytest.raises(StorageError):
                _decode_page(page[:cut])
        else:
            assert _decode_page(page[:cut]) == PAGE_RECORDS[:whole]


DIGEST = bytes(range(32))
MPT_NODES = {
    "branch": BranchNode(
        children=tuple(DIGEST if index in (1, 7, 15) else None for index in range(16)),
        value=b"branch-value",
    ),
    "bare-branch": BranchNode(children=(None,) * 15 + (DIGEST,), value=None),
    "extension": ExtensionNode(path=(1, 2, 3), child=DIGEST),
}


@pytest.mark.parametrize("kind", sorted(MPT_NODES))
def test_every_truncation_of_an_mpt_branch_or_extension_raises(kind):
    data = encode_node(MPT_NODES[kind])
    assert decode_node(data) == MPT_NODES[kind]
    for cut in range(len(data)):
        with pytest.raises(StorageError):
            decode_node(data[:cut])


def test_every_cut_inside_an_mpt_leaf_path_raises():
    """A leaf's value runs to the end of the node by format: a cut there
    is a leaf with a shorter value."""
    leaf = LeafNode(path=(4, 5, 6, 7, 8), value=b"leaf-value")
    data = encode_node(leaf)
    path_end = 1 + len(pack_nibbles(leaf.path))
    for cut in range(path_end):
        with pytest.raises(StorageError):
            decode_node(data[:cut])
    for cut in range(path_end, len(data) + 1):
        assert decode_node(data[:cut]) == LeafNode(leaf.path, leaf.value[: cut - path_end])
