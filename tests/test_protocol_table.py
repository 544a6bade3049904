"""The op table (``repro.server.protocol.OPS``) is the contract.

Every protocol op is declared once, as a table row; decoding, dispatch,
the typed clients and the cluster key check are derived from it.  These
tests pin what "derived" must keep meaning:

* golden frames — request and response bytes recorded at the commit
  *before* the table existed (PR 18, ``c84c513``) still encode to the
  same bytes and decode to the same values;
* a hypothesis round trip ``encode -> decode_request`` per op;
* wiring — every ``Op`` has a row, a server handler that takes the row's
  args, and a ``KVClient`` method (or a stated reason it has none); every
  ``Status`` that is not an answer raises in ``check_status``;
* the ``write`` / data / keyed op sets, written out as literals, equal
  what the table derives — on the table and through ``_dispatch`` and
  ``ShardRole.referral_for``.

No sockets: this file runs in the CI ``unit`` job.
"""

import asyncio
import inspect
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardRole, plan_manifest
from repro.common.errors import StorageError
from repro.server import ColeServer, KVClient, protocol
from repro.server.protocol import (
    LATEST_BLK,
    MAX_MULTI_BATCH,
    OPS,
    MovedError,
    NotPrimaryError,
    Op,
    RootInfo,
    Status,
)
from repro.server.server import OP_NAMES

A, V = b"addr-1", b"value-1"
DIGEST = bytes(range(32))
ALL_OPS = {value for name, value in vars(Op).items() if name.isupper()}

# (label, opcode, args given to encode, args decode_request returns, frame)
GOLDEN_REQUESTS = [
    ("PUT", 1, (A, V), (A, V),
     "00000014010006616464722d310000000776616c75652d31"),
    ("GET", 2, (A,), (A,),
     "00000009020006616464722d31"),
    ("GET_AT", 3, (A, 7), (A, 7),
     "00000011030006616464722d310000000000000007"),
    ("PROV", 4, (A, 2, 9), (A, 2, 9),
     "00000019040006616464722d3100000000000000020000000000000009"),
    ("ROOT", 5, (), (), "0000000105"),
    ("STATS", 6, (), (), "0000000106"),
    ("FLUSH", 7, (), (), "0000000107"),
    ("REPL_SUBSCRIBE", 8, (5,), (5,), "00000009080000000000000005"),
    ("SCAN", 9, (b"a", b"z", 12, 50), (b"a", b"z", 12, 50),
     "000000130900016100017a000000000000000c00000032"),
    ("SCAN latest", 9, (b"a", b"z", None, 0), (b"a", b"z", LATEST_BLK, 0),
     "000000130900016100017affffffffffffffff00000000"),
    ("MULTI_GET", 10, ([b"a1", b"a2"],), ([b"a1", b"a2"],),
     "0000000b0a00020002613100026132"),
    ("MULTI_PUT", 11, ([(b"a1", b"v1"), (b"a2", b"v2")],),
     ([(b"a1", b"v1"), (b"a2", b"v2")],),
     "000000170b00020002613100000002763100026132000000027632"),
    ("METRICS", 12, (), (), "000000010c"),
    ("CLUSTER", 13, (), (), "000000010d"),
    ("ADMIN", 14, ({"cmd": "status", "shard": 3},),
     (b'{"cmd": "status", "shard": 3}',),
     "000000220e0000001d7b22636d64223a2022737461747573222c20227368617264"
     "223a20337d"),
]
GOLDEN_ARGS = {op: decoded for _, op, _, decoded, _ in GOLDEN_REQUESTS}

# label -> (encoder, its args, frame, decoder, decoded value)
GOLDEN_RESPONSES = {
    "value": (protocol.encode_value_response, (V,),
              "0000000c000000000776616c75652d31",
              protocol.decode_value_response, V),
    "value miss": (protocol.encode_value_response, (None,), "0000000101",
                   protocol.decode_value_response, None),
    "not_found": (protocol.encode_not_found, (), "0000000101",
                  protocol.decode_value_response, None),
    "height": (protocol.encode_height_response, (42,),
               "0000000900000000000000002a",
               protocol.decode_height_response, 42),
    "root": (protocol.encode_root_response, (RootInfo(DIGEST, 3, 9),),
             "00000033000020000102030405060708090a0b0c0d0e0f101112131415161718"
             "191a1b1c1d1e1f00000000000000030000000000000009",
             protocol.decode_root_response, RootInfo(DIGEST, 3, 9)),
    "blob": (protocol.encode_blob_response, (b"blob",),
             "000000090000000004626c6f62",
             protocol.decode_blob_response, b"blob"),
    "multi_get": (protocol.encode_multi_get_response, ([V, None],),
                  "00000010000002010000000776616c75652d3100",
                  protocol.decode_multi_get_response, [V, None]),
    "scan page": (protocol.encode_scan_response, ([(b"a", 3, V)], b"b", 9),
                  "000000270001000162000000000000000900000001000161000000000000"
                  "00030000000776616c75652d31",
                  protocol.decode_scan_response, ([(b"a", 3, V)], b"b", 9)),
    "scan last page": (protocol.encode_scan_response, ([], None, 9),
                       "0000000e0000000000000000000900000000",
                       protocol.decode_scan_response, ([], None, 9)),
    "repl handshake": (protocol.encode_repl_handshake, (11,),
                       "0000000900000000000000000b",
                       protocol.decode_repl_handshake, 11),
    "repl record": (protocol.encode_repl_record, (b"rec",), "0000000400726563",
                    protocol.decode_repl_record, b"rec"),
}

# label -> (encoder, its args, frame, what check_status raises)
GOLDEN_REJECTIONS = {
    "error": (protocol.encode_error, ("boom",), "0000000502626f6f6d",
              StorageError),
    "not_primary": (protocol.encode_not_primary, ("10.0.0.1:7407",),
                    "0000000e0331302e302e302e313a37343037", NotPrimaryError),
    "moved": (protocol.encode_moved, ("10.0.0.2:7408", 7, 3),
              "00000018040000000000000007000331302e302e302e323a37343038",
              MovedError),
}

# The op sets the serving layer used to keep by hand, as literals.
WRITE_OPS = {Op.PUT, Op.MULTI_PUT, Op.FLUSH}
DATA_OPS = {
    Op.PUT, Op.GET, Op.GET_AT, Op.PROV, Op.SCAN, Op.MULTI_GET, Op.MULTI_PUT,
    Op.FLUSH,
}
ONE_KEY_OPS = {Op.PUT, Op.GET, Op.GET_AT, Op.PROV}
EVERY_KEY_OPS = {Op.MULTI_GET, Op.MULTI_PUT}
STATS_OPS_ORDER = [
    "put", "get", "get_at", "prov", "root", "stats", "flush", "repl", "scan",
    "multi_get", "multi_put", "metrics", "cluster", "admin",
]
#: Ops no ``KVClient`` method speaks, and who speaks them instead.
NOT_ON_KVCLIENT = {
    Op.REPL_SUBSCRIBE: "the replica applier, over ServerClient.stream",
    Op.CLUSTER: "repro.cluster.fetch_manifest, a one-shot ServerClient",
    Op.ADMIN: "repro.cluster.admin_call, a one-shot ServerClient",
}


# =============================================================================
# (a) golden frames
# =============================================================================

@pytest.mark.parametrize(
    "label,op,args,decoded,frame", GOLDEN_REQUESTS, ids=lambda v: str(v)[:16]
)
def test_golden_request_frames(label, op, args, decoded, frame):
    assert OPS[op].encode(*args).hex() == frame
    assert protocol.decode_request(bytes.fromhex(frame)[4:]) == (op, decoded)


@pytest.mark.parametrize("label", GOLDEN_RESPONSES)
def test_golden_response_frames(label):
    encode, args, frame, decode, value = GOLDEN_RESPONSES[label]
    assert encode(*args).hex() == frame
    assert decode(bytes.fromhex(frame)[4:]) == value


@pytest.mark.parametrize("label", GOLDEN_REJECTIONS)
def test_golden_rejection_frames(label):
    encode, args, frame, error = GOLDEN_REJECTIONS[label]
    assert encode(*args).hex() == frame
    # Every response decoder funnels through check_status.
    for spec in OPS.values():
        with pytest.raises(error) as caught:
            spec.decode(bytes.fromhex(frame)[4:])
        assert type(caught.value) is error
    if error is MovedError:
        moved = caught.value
        assert (moved.address, moved.manifest_epoch, moved.shard_id) == (
            "10.0.0.2:7408", 7, 3
        )
    if error is NotPrimaryError:
        assert caught.value.primary == "10.0.0.1:7407"


@pytest.mark.parametrize(
    "label,op,args,decoded,frame", GOLDEN_REQUESTS, ids=lambda v: str(v)[:16]
)
def test_trailing_bytes_are_rejected_on_every_op(label, op, args, decoded, frame):
    with pytest.raises(StorageError, match="trailing"):
        protocol.decode_request(bytes.fromhex(frame)[4:] + b"JUNK")


def test_unknown_opcode_is_rejected_by_the_decoder():
    with pytest.raises(StorageError, match="unknown opcode"):
        protocol.decode_request(bytes([max(ALL_OPS) + 1]))


# =============================================================================
# (b) encode -> decode_request round trips
# =============================================================================

addrs = st.binary(max_size=64)
values = st.binary(max_size=256)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
ARG_STRATEGIES = {
    Op.PUT: st.tuples(addrs, values),
    Op.GET: st.tuples(addrs),
    Op.GET_AT: st.tuples(addrs, u64),
    Op.PROV: st.tuples(addrs, u64, u64),
    Op.ROOT: st.just(()),
    Op.STATS: st.just(()),
    Op.FLUSH: st.just(()),
    Op.REPL_SUBSCRIBE: st.tuples(u64),
    Op.SCAN: st.tuples(addrs, addrs, u64, u32),
    Op.MULTI_GET: st.tuples(st.lists(addrs, min_size=1, max_size=8)),
    Op.MULTI_PUT: st.tuples(
        st.lists(st.tuples(addrs, values), min_size=1, max_size=8)
    ),
    Op.METRICS: st.just(()),
    Op.CLUSTER: st.just(()),
}


def test_every_op_has_a_round_trip_strategy():
    # ADMIN's encoder takes a dict and its decoder hands back the JSON
    # blob, so it round-trips through the golden frame above instead.
    assert set(ARG_STRATEGIES) == ALL_OPS - {Op.ADMIN}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("op", sorted(ARG_STRATEGIES))
def test_request_round_trip(op, data):
    args = data.draw(ARG_STRATEGIES[op])
    assert protocol.decode_request(OPS[op].encode(*args)[4:]) == (op, args)


def test_batch_bounds_hold_on_both_sides():
    too_many = [A] * (MAX_MULTI_BATCH + 1)
    for op, batch in ((Op.MULTI_GET, too_many), (Op.MULTI_PUT, [(A, V)] * len(too_many))):
        with pytest.raises(StorageError, match="cap"):
            OPS[op].encode(batch)
        with pytest.raises(StorageError, match="empty"):
            OPS[op].encode([])
        with pytest.raises(StorageError, match="cap"):
            protocol.decode_request(bytes([op]) + len(batch).to_bytes(2, "big"))
        with pytest.raises(StorageError, match="empty"):
            protocol.decode_request(bytes([op]) + (0).to_bytes(2, "big"))


# =============================================================================
# (b') the by-offset fast paths equal the field-by-field composition
# =============================================================================
#
# GET / MULTI_GET requests and the value / MULTI_GET responses are packed
# from one ``struct`` header and sliced by offset.  The references below
# are the compositions they replaced, from the primitives the other ops
# still use (``pack_bytes16`` / ``Cursor``): same bytes out, same values
# or the same ``StorageError`` in — for any input, well-formed or not.

def _ref_encode_get(addr):
    return protocol.encode_frame(bytes([Op.GET]) + protocol.pack_bytes16(addr))


def _ref_encode_multi_get(addrs):
    return protocol.encode_frame(
        bytes([Op.MULTI_GET]) + len(addrs).to_bytes(2, "big")
        + b"".join(protocol.pack_bytes16(addr) for addr in addrs)
    )


def _ref_encode_multi_get_response(values):
    return protocol.encode_ok(
        len(values).to_bytes(2, "big")
        + b"".join(
            b"\x00" if value is None else b"\x01" + protocol.pack_bytes32(value)
            for value in values
        )
    )


def _ref_decode_request(body):
    cursor = protocol.Cursor(body)
    op = cursor.u8()
    if op not in OPS:
        raise StorageError(f"unknown opcode {op}")
    args = OPS[op].decode_args(cursor)
    if not cursor.done():
        raise StorageError("trailing bytes")
    return op, args


def _ref_decode_value_response(body):
    cursor = protocol.Cursor(body)
    if protocol.check_status(cursor) == Status.NOT_FOUND:
        return None
    return cursor.bytes32()


def _ref_decode_multi_get_response(body):
    cursor = protocol.Cursor(body)
    protocol.check_status(cursor)
    found = [cursor.bytes32() if cursor.u8() else None for _ in range(cursor.u16())]
    if not cursor.done():
        raise StorageError("trailing bytes")
    return found


def _outcome(decode, body):
    """What ``decode(body)`` does: its value, or the error class — which
    must come from the taxonomy, never ``struct.error`` / ``IndexError``."""
    try:
        return decode(body)
    except StorageError as exc:
        return type(exc)


maybe_values = st.one_of(st.none(), values)


@settings(max_examples=100, deadline=None)
@given(addr=addrs, batch=st.lists(addrs, min_size=1, max_size=8),
       value=maybe_values, found=st.lists(maybe_values, max_size=8))
def test_fast_path_encoders_emit_the_composed_bytes(addr, batch, value, found):
    assert protocol.encode_get(addr) == _ref_encode_get(addr)
    assert protocol.encode_multi_get(batch) == _ref_encode_multi_get(batch)
    assert protocol.encode_value_response(value) == (
        protocol.encode_not_found() if value is None
        else protocol.encode_ok(protocol.pack_bytes32(value))
    )
    assert protocol.encode_multi_get_response(found) == (
        _ref_encode_multi_get_response(found)
    )
    assert protocol.decode_value_response(
        protocol.encode_value_response(value)[4:]
    ) == value
    assert protocol.decode_multi_get_response(
        protocol.encode_multi_get_response(found)[4:]
    ) == found


def _mangled(frame_body, data):
    """``frame_body`` cut short, extended, or with one byte changed."""
    how = data.draw(st.sampled_from(["cut", "extend", "flip", "keep"]))
    if how == "cut":
        return frame_body[: data.draw(st.integers(0, len(frame_body)))]
    if how == "extend":
        return frame_body + data.draw(st.binary(min_size=1, max_size=4))
    if how == "flip" and frame_body:
        at = data.draw(st.integers(0, len(frame_body) - 1))
        return frame_body[:at] + bytes([data.draw(st.integers(0, 255))]) + frame_body[at + 1:]
    return frame_body


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fast_path_decoders_agree_with_the_cursor_on_any_bytes(data):
    batch = data.draw(st.lists(addrs, min_size=1, max_size=6))
    found = data.draw(st.lists(maybe_values, max_size=6))
    for decode, reference, body in (
        (protocol.decode_request, _ref_decode_request,
         protocol.encode_get(batch[0])[4:]),
        (protocol.decode_request, _ref_decode_request,
         protocol.encode_multi_get(batch)[4:]),
        (protocol.decode_value_response, _ref_decode_value_response,
         protocol.encode_value_response(found[0] if found else None)[4:]),
        (protocol.decode_multi_get_response, _ref_decode_multi_get_response,
         protocol.encode_multi_get_response(found)[4:]),
    ):
        body = _mangled(body, data)
        assert _outcome(decode, body) == _outcome(reference, body)


def test_fast_path_encoders_reject_what_the_composition_rejected():
    huge = bytes(0x10000)  # one byte past a u16 length
    for encode, args in (
        (protocol.encode_get, (huge,)),
        (protocol.encode_multi_get, ([A, huge],)),
    ):
        with pytest.raises(StorageError, match="64 KiB"):
            encode(*args)
    assert protocol.decode_request(protocol.encode_get(huge[1:])[4:]) == (
        Op.GET, (huge[1:],)
    )
    # A count that promises more (or fewer) entries than the payload holds.
    body = protocol.encode_multi_get([A, A])[4:]
    for bad in (body[:-1], body + b"\x00", body[:1] + b"\x00\x03" + body[3:]):
        with pytest.raises(StorageError):
            protocol.decode_request(bad)
    answer = protocol.encode_multi_get_response([V, None])[4:]
    for bad in (answer[:-2], answer + b"\x00", answer[:1] + b"\x00\x03" + answer[3:]):
        with pytest.raises(StorageError):
            protocol.decode_multi_get_response(bad)
    with pytest.raises(StorageError, match="truncated"):
        protocol.decode_request(b"")


# =============================================================================
# (c) wiring: row -> server handler -> client method
# =============================================================================

def test_every_op_has_exactly_one_row():
    assert set(OPS) == ALL_OPS
    assert all(spec.op == op for op, spec in OPS.items())
    assert {spec.kind for spec in OPS.values()} == {
        protocol.READ, protocol.WRITE, protocol.CONTROL, protocol.STREAM
    }
    # STATS["ops"] keys and their order are a published schema.
    assert list(OP_NAMES.values()) == STATS_OPS_ORDER
    assert list(OP_NAMES) == sorted(ALL_OPS)


def test_every_op_has_a_server_handler_taking_its_args():
    stream_ops = {op for op, spec in OPS.items() if spec.kind == protocol.STREAM}
    assert stream_ops == {Op.REPL_SUBSCRIBE}  # served by _stream_replication
    assert set(ColeServer._HANDLERS) == ALL_OPS - stream_ops
    for op, handler in ColeServer._HANDLERS.items():
        assert inspect.iscoroutinefunction(handler)
        inspect.signature(handler).bind(None, *GOLDEN_ARGS[op])
    inspect.signature(ColeServer._stream_replication).bind(
        None, None, *GOLDEN_ARGS[Op.REPL_SUBSCRIBE]
    )


class _RecordingClient(KVClient):
    """A topology that reaches no server: it records which row each
    typed method routes and answers with a canned decoded response."""

    ANSWERS = {Op.SCAN: ([], None, 9), Op.PROV: ("result", b"root")}

    def __init__(self):
        self.routed = []

    async def _route(self, spec, *args):
        self.routed.append(spec.op)
        spec.encode(*args)  # the typed method passes what the row encodes
        return self.ANSWERS.get(spec.op)


def test_every_op_is_reachable_from_kvclient_or_says_why_not():
    client = _RecordingClient()

    async def call_every_typed_method():
        await client.put(A, V)
        await client.get(A)
        await client.get_at(A, 7)
        await client.multi_get([A])
        await client.multi_put([(A, V)])
        await client.prov(A, 2, 9)
        await client.scan(b"a", b"z")
        await client.root()
        await client.flush()
        await client.stats()
        await client.metrics()

    asyncio.run(call_every_typed_method())
    assert len(client.routed) == len(set(client.routed))  # one row per method
    assert set(client.routed) | set(NOT_ON_KVCLIENT) == ALL_OPS
    assert not set(client.routed) & set(NOT_ON_KVCLIENT)


def test_every_non_answer_status_raises_in_check_status():
    statuses = {v for name, v in vars(Status).items() if name.isupper()}
    assert statuses == {0, 1, 2, 3, 4}
    for status in statuses:
        # Payload long enough for MOVED's (u64 epoch, u16 shard) header.
        cursor = protocol.Cursor(bytes([status]) + bytes(10) + b"h:1")
        if status in (Status.OK, Status.NOT_FOUND):
            assert protocol.check_status(cursor) == status
        else:
            with pytest.raises(StorageError):
                protocol.check_status(cursor)


# =============================================================================
# (d) the derived op sets equal the literal ones
# =============================================================================

def test_table_derives_the_literal_sets():
    assert {op for op, s in OPS.items() if s.kind == protocol.WRITE} == WRITE_OPS
    assert {
        op for op, s in OPS.items() if s.kind in protocol.DATA_CLASSES
    } == DATA_OPS
    keyed = {op for op, s in OPS.items() if s.addresses is not None}
    assert keyed == ONE_KEY_OPS | EVERY_KEY_OPS
    for op in ONE_KEY_OPS:
        assert list(OPS[op].addresses(GOLDEN_ARGS[op])) == [A]
    for op in EVERY_KEY_OPS:
        assert list(OPS[op].addresses(GOLDEN_ARGS[op])) == [b"a1", b"a2"]


def _stub_server():
    """A ColeServer whose handlers all answer ``b"handled"``."""
    server = ColeServer(engine=None)

    async def handled(self, *args):
        return b"handled"

    server._HANDLERS = dict.fromkeys(ColeServer._HANDLERS, handled)
    return server


def _dispatch_all(server):
    return {
        op: asyncio.run(server._dispatch(op, GOLDEN_ARGS[op]))
        for op in sorted(ColeServer._HANDLERS)
    }


def test_a_replica_rejects_exactly_the_write_ops():
    server = _stub_server()
    server.replica = SimpleNamespace(primary_addr="10.0.0.1:7407")
    rejection = protocol.encode_not_primary("10.0.0.1:7407")
    answers = _dispatch_all(server)
    assert {op for op, answer in answers.items() if answer == rejection} == WRITE_OPS
    assert {op for op, answer in answers.items() if answer == b"handled"} == (
        set(answers) - WRITE_OPS
    )
    # Rejected or served, each request is counted once under its name.
    assert server.op_counts == {
        name: 0 if name == "repl" else 1 for name in STATS_OPS_ORDER
    }


def _role(shard_id=0):
    manifest = plan_manifest(num_nodes=2, num_shards=2)
    return ShardRole(SimpleNamespace(manifest=manifest, name="node-0"), shard_id)


def test_a_moved_shard_refers_exactly_the_data_ops():
    role = _role()
    role.moved_to, role.moved_epoch = "10.0.0.2:7408", 7
    server = _stub_server()
    server.cluster = role
    moved = protocol.encode_moved("10.0.0.2:7408", 7, 0)
    answers = _dispatch_all(server)
    assert {op for op, answer in answers.items() if answer == moved} == DATA_OPS
    assert {op for op, answer in answers.items() if answer == b"handled"} == (
        set(answers) - DATA_OPS
    )
    assert role.moved_referrals == len(DATA_OPS)


def test_the_key_check_covers_one_or_every_address_never_scan_or_flush():
    role = _role(shard_id=0)
    manifest = role.manifest
    mine = next(bytes([n]) * 8 for n in range(256) if manifest.shard_for(bytes([n]) * 8) == 0)
    theirs = next(bytes([n]) * 8 for n in range(256) if manifest.shard_for(bytes([n]) * 8) == 1)
    referral = protocol.encode_moved(manifest.address_of(1), manifest.epoch, 1)

    def args_for(op, *keys):
        if op == Op.MULTI_GET:
            return (list(keys),)
        if op == Op.MULTI_PUT:
            return ([(key, V) for key in keys],)
        return (keys[0],) + GOLDEN_ARGS[op][1:]

    for op in ONE_KEY_OPS:
        assert role.referral_for(op, args_for(op, mine)) is None
        assert role.referral_for(op, args_for(op, theirs)) == referral
    for op in EVERY_KEY_OPS:
        assert role.referral_for(op, args_for(op, mine, mine)) is None
        # One foreign key anywhere in the batch refers the whole batch.
        assert role.referral_for(op, args_for(op, mine, theirs)) == referral
    for op in ALL_OPS - ONE_KEY_OPS - EVERY_KEY_OPS:
        args = GOLDEN_ARGS[op]
        if op == Op.SCAN:
            args = (theirs, theirs) + args[2:]  # a range over foreign keys
        assert role.referral_for(op, args) is None
