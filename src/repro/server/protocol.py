"""Wire protocol of the serving layer: length-prefixed binary frames.

Every message — request or response — is one frame::

    u32 body_length | body

A request body is ``u8 opcode`` followed by the op's payload; a response
body is ``u8 status`` followed by the status's payload.  All integers are
big-endian.  Variable-length byte strings are encoded as ``u16 length``
(addresses) or ``u32 length`` (values, blobs) plus the raw bytes.

Ops
---

Every op is declared **once**, as a row of :data:`OPS` at the bottom of
this module; request decoding, the server's dispatch and counters, the
typed client methods and the cluster key check all read that table.

==============  =======  ==========  ========================  =========================
op              class    routes by   request payload           OK response payload
==============  =======  ==========  ========================  =========================
PUT             write    addr        addr16, value32           u64 block height assigned
GET             read     addr        addr16                    value32 (or NOT_FOUND)
GET_AT          read     addr        addr16, u64 blk           value32 (or NOT_FOUND)
PROV            read     addr        addr16, u64 blk_low,      blob32 (pickled result)
                                     u64 blk_high
ROOT            control  —           —                         digest16, u64 ver, u64 blk
STATS           control  —           —                         blob32 (JSON, utf-8)
FLUSH           write    —           —                         digest16, u64 ver, u64 blk
REPL_SUBSCRIBE  stream   —           u64 start_height          u64 primary height, then
                                                               a stream of record frames
SCAN            read     —           lo16, hi16, u64 at_blk,   one result page: u8 more,
                                     u32 limit                 [cont16,] u64 snapshot
                                                               height, u32 count, then
                                                               count x (addr16, u64 blk,
                                                               value32)
MULTI_GET       read     every addr  u16 count, count x        u16 count, count x
                                     addr16                    (u8 present, [value32])
MULTI_PUT       write    every addr  u16 count, count x        u64 block height assigned
                                     (addr16, value32)         to the whole batch
METRICS         control  —           —                         blob32 (Prometheus text
                                                               exposition, utf-8)
CLUSTER         control  —           —                         blob32 (manifest JSON)
ADMIN           control  —           blob32 (JSON command)     blob32 (JSON result)
==============  =======  ==========  ========================  =========================

The **class** decides who may answer: a replica rejects ``write`` ops
with ``NOT_PRIMARY``; a shard that has moved away answers ``MOVED`` to
every ``read`` and ``write`` op (the *data* ops) but keeps serving
``control`` ops so operators and the migration coordinator can still
observe it; a ``stream`` op takes over its connection.  **Routes by**
names the addresses a cluster shard checks ownership of (and a cluster
client picks the owner by); SCAN and FLUSH are data ops with no routable
key — a cluster client fans them over every shard.  A request with bytes
left over after its payload is rejected, whatever the op.

``MULTI_GET`` / ``MULTI_PUT`` are the vectorized point ops: N keys cost
one round trip, one frame parse, and (for puts) one batcher handoff and
one WAL append instead of N.  The MULTI_GET response carries per-key
results *positionally* — entry ``i`` answers address ``i`` — with a
``present`` flag standing in for the per-key NOT_FOUND status.  A
MULTI_PUT batch buffers as one unit, so every key commits at the same
block height and the response carries that single height.  Batches are
bounded by :data:`MAX_MULTI_BATCH` keys; empty and oversize batches are
rejected at decode time with a clean ERROR status, as are frames whose
``count`` disagrees with the payload actually attached (truncation and
trailing garbage both).

``SCAN`` is the key-ordered range read: the live version of every
address in ``[lo, hi]`` as of block ``at_blk`` (``LATEST_BLK`` = the
newest committed state), ascending.  One request returns one
length-prefixed **result page** of at most ``limit`` triples; when the
``more`` flag is set the page ends with a *continuation key* — the next
unreturned address — and the client issues the next request from it, so
a single logical scan streams past any one frame's size cap without the
server holding per-connection scan state.  Every page also carries the
**snapshot height** it was served at: a latest scan is pinned to the
committed height at serve time, and the client re-pins continuation
pages to the first page's height (``at_blk``), so a multi-page scan
describes one consistent committed state even while writers commit
between pages.

``REPL_SUBSCRIBE`` turns its connection into a one-way replication
stream: after the handshake response the server sends an unbounded
sequence of OK frames, each carrying exactly one raw WAL record
(:mod:`repro.wal.record` framing, crc32 and all) for block heights above
``start_height`` — PUTS batches followed by the COMMIT marker that seals
them.  A server that cannot serve the stream answers the subscribe with
an ERROR frame instead (replicas answer ``NOT_PRIMARY``).

``NOT_PRIMARY`` and ``MOVED`` are the two **referral** statuses: the
server cannot answer, but it knows who can.  ``NOT_PRIMARY`` is the
write rejection of replica servers (payload: the primary's
``host:port``); ``MOVED`` is the cluster rejection of a server that no
longer owns the requested shard (payload: ``u64 manifest_epoch``,
``u16 shard_id``, then the new owner's ``host:port``).  Both decode in
one place — :func:`check_status` — into subclasses of one
:class:`Referral` error carrying ``(reason, address, manifest_epoch,
shard_id)``, so every client handles redirection through a single type
instead of per-call-site status checks.

``CLUSTER`` asks any cluster member for its current manifest (JSON,
utf-8) — the same document the static manifest file holds — so clients
can bootstrap from one seed address and refresh after a ``MOVED``.
``ADMIN`` carries a JSON command blob to a cluster node's control
server (snapshot / adopt / cutover / promote / status...); keeping the
admin surface inside one opcode means migrations evolve without
touching the wire format again.

``PROV`` responses carry the engine's full provenance result (values,
boundary version, and the authentication proof) as a pickle blob so the
client can run the verifier locally.  Pickle is only safe between
mutually trusting endpoints; the serving layer targets a trusted network
segment, exactly like the paper's single-operator deployment.

The framing is deliberately request-id free: the server answers each
connection's requests strictly in order, so a pipelining client matches
responses to requests by position (see ``repro.server.client``).

Frame IO: both ends are asyncio protocols (:class:`FrameProtocol`: the
loop reads into one reusable buffer) and cut frames out of whatever
chunks arrive with :class:`FrameBuffer`; every client peer — the
replica's stream included — reads through one such connection.  The
four hot frames — GET / MULTI_GET requests, value / MULTI_GET answers —
are packed from one precompiled header and sliced by offset; every other
shape, and every malformed one, goes field by field through
:class:`Cursor`, where the rejections are worded.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import StorageError

MAX_FRAME = 64 * 1024 * 1024  # hard cap against corrupt / hostile lengths

#: Hard cap on keys per MULTI_GET / MULTI_PUT batch.  Large enough for
#: any sane pipelining depth, small enough that one batch cannot pin the
#: event loop or approach MAX_FRAME with ordinary value sizes.
MAX_MULTI_BATCH = 4096

#: ``at_blk`` sentinel meaning "the latest committed state" (u64 max —
#: the same value :data:`repro.core.compound.MAX_BLK` gives the floor
#: search, so encoding latest scans needs no special casing anywhere).
LATEST_BLK = 2**64 - 1

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
#: The whole fixed part of three hot frames: frame length, one byte
#: (opcode / status) and one u16 — a GET's address length, a MULTI_GET's
#: key count, a MULTI_GET answer's entry count.
_COUNTED_HEAD = struct.Struct(">IBH")
#: Frame length, OK status and value length of a GET / GET_AT answer.
_VALUE_HEAD = struct.Struct(">IBI")
#: ``present`` flag and value length of one MULTI_GET answer entry.
_PRESENT_HEAD = struct.Struct(">BI")


class Op:
    """Request opcodes."""

    PUT = 1
    GET = 2
    GET_AT = 3
    PROV = 4
    ROOT = 5
    STATS = 6
    FLUSH = 7
    REPL_SUBSCRIBE = 8
    SCAN = 9
    MULTI_GET = 10
    MULTI_PUT = 11
    METRICS = 12
    CLUSTER = 13
    ADMIN = 14


class Status:
    """Response status codes."""

    OK = 0
    NOT_FOUND = 1
    ERROR = 2
    NOT_PRIMARY = 3
    MOVED = 4


class Referral(StorageError):
    """The server cannot answer, but named who can.

    One error type covers every redirection the protocol knows:
    ``NOT_PRIMARY`` (a replica naming its primary) and ``MOVED`` (a
    cluster server naming a shard's new owner).  ``address`` is always
    the ``host:port`` to retry against; ``manifest_epoch`` / ``shard_id``
    are only meaningful for MOVED (0 / ``None`` otherwise).
    """

    def __init__(
        self,
        reason: str,
        address: str,
        manifest_epoch: int = 0,
        shard_id: Optional[int] = None,
    ) -> None:
        super().__init__(f"{reason}; retry at {address}")
        self.reason = reason
        self.address = address
        self.manifest_epoch = manifest_epoch
        self.shard_id = shard_id


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` -> ``(host, port)``: the shape of every referral
    payload, manifest entry and CLI address option."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise StorageError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)


class NotPrimaryError(Referral):
    """A write (or subscribe) hit a replica; redirect to ``primary``."""

    def __init__(self, primary: str) -> None:
        super().__init__("not the primary; writes go to the primary", primary)

    @property
    def primary(self) -> str:
        """``host:port`` of the primary the replica follows (legacy name)."""
        return self.address


class MovedError(Referral):
    """The shard moved to a new owner; refresh the manifest and retry."""

    def __init__(self, address: str, manifest_epoch: int, shard_id: int) -> None:
        super().__init__(
            f"shard {shard_id} moved (manifest epoch {manifest_epoch})",
            address,
            manifest_epoch,
            shard_id,
        )


@dataclass(frozen=True)
class RootInfo:
    """State anchor returned by ROOT and FLUSH."""

    digest: bytes
    version: int  # commit-version counter (bumped per group commit)
    height: int   # last committed block height


# =============================================================================
# primitive encoders
# =============================================================================

def encode_frame(body: bytes) -> bytes:
    """Prefix ``body`` with its u32 length."""
    return _U32.pack(len(body)) + body


def pack_bytes16(data: bytes) -> bytes:
    """u16-length-prefixed bytes (addresses, digests)."""
    if len(data) > 0xFFFF:
        raise StorageError("bytes16 field exceeds 64 KiB")
    return _U16.pack(len(data)) + data


def pack_bytes32(data: bytes) -> bytes:
    """u32-length-prefixed bytes (values, blobs)."""
    return _U32.pack(len(data)) + data


class Cursor:
    """Sequential decoder over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise StorageError("truncated frame")
        piece = self.data[self.pos:end]
        self.pos = end
        return piece

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def bytes16(self) -> bytes:
        return self._take(self.u16())

    def bytes32(self) -> bytes:
        return self._take(self.u32())

    def done(self) -> bool:
        return self.pos == len(self.data)


# =============================================================================
# request encoding / decoding
# =============================================================================

def encode_put(addr: bytes, value: bytes) -> bytes:
    return encode_frame(bytes([Op.PUT]) + pack_bytes16(addr) + pack_bytes32(value))


def encode_get(addr: bytes) -> bytes:
    size = len(addr)
    if size > 0xFFFF:
        raise StorageError("bytes16 field exceeds 64 KiB")
    return _COUNTED_HEAD.pack(3 + size, Op.GET, size) + addr


def encode_get_at(addr: bytes, blk: int) -> bytes:
    return encode_frame(bytes([Op.GET_AT]) + pack_bytes16(addr) + _U64.pack(blk))


def encode_prov(addr: bytes, blk_low: int, blk_high: int) -> bytes:
    return encode_frame(
        bytes([Op.PROV]) + pack_bytes16(addr) + _U64.pack(blk_low) + _U64.pack(blk_high)
    )


def encode_scan(
    addr_low: bytes, addr_high: bytes, at_blk: Optional[int], limit: int
) -> bytes:
    """One scan page request; ``at_blk=None`` scans the latest state."""
    return encode_frame(
        bytes([Op.SCAN])
        + pack_bytes16(addr_low)
        + pack_bytes16(addr_high)
        + _U64.pack(LATEST_BLK if at_blk is None else at_blk)
        + _U32.pack(limit)
    )


def _check_batch_count(count: int) -> int:
    """Validate a MULTI_* batch size (client and server share the rule)."""
    if count == 0:
        raise StorageError("empty MULTI batch")
    if count > MAX_MULTI_BATCH:
        raise StorageError(
            f"MULTI batch of {count} keys exceeds the {MAX_MULTI_BATCH}-key cap"
        )
    return count


def encode_multi_get(addrs: List[bytes]) -> bytes:
    """One MULTI_GET request: ``count`` addresses, one frame."""
    count, pack = _check_batch_count(len(addrs)), _U16.pack
    try:
        payload = b"".join([pack(len(addr)) + addr for addr in addrs])
    except struct.error:
        raise StorageError("bytes16 field exceeds 64 KiB") from None
    return _COUNTED_HEAD.pack(3 + len(payload), Op.MULTI_GET, count) + payload


def encode_multi_put(items: List[Tuple[bytes, bytes]]) -> bytes:
    """One MULTI_PUT request: ``count`` (addr, value) pairs, one frame."""
    _check_batch_count(len(items))
    parts = [bytes([Op.MULTI_PUT]), _U16.pack(len(items))]
    parts.extend(pack_bytes16(addr) + pack_bytes32(value) for addr, value in items)
    return encode_frame(b"".join(parts))


def encode_simple(op: int) -> bytes:
    """ROOT / STATS / FLUSH / METRICS / CLUSTER — opcode-only requests."""
    return encode_frame(bytes([op]))


def encode_admin(payload: dict) -> bytes:
    """One ADMIN request: a JSON command blob for a cluster control server."""
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return encode_frame(bytes([Op.ADMIN]) + pack_bytes32(blob))


def encode_repl_subscribe(start_height: int) -> bytes:
    """Subscribe to the primary's stream for heights > ``start_height``."""
    return encode_frame(bytes([Op.REPL_SUBSCRIBE]) + _U64.pack(start_height))


def decode_request(body: bytes) -> Tuple[int, tuple]:
    """Decode a request body into ``(opcode, args)`` by the op table.

    A well-formed GET or MULTI_GET is sliced by offset first; every other
    op — and any GET / MULTI_GET the fast path does not accept whole —
    takes the table path, which is where each rejection is worded.
    """
    op = body[0] if body else None
    if op == Op.GET:
        if len(body) >= 3 and 3 + _U16.unpack_from(body, 1)[0] == len(body):
            return op, (body[3:],)
    elif op == Op.MULTI_GET and len(body) >= 3:
        count = _U16.unpack_from(body, 1)[0]
        if 0 < count <= MAX_MULTI_BATCH:
            addrs, pos, u16_at = [], 3, _U16.unpack_from
            try:
                for _ in range(count):
                    end = pos + 2 + u16_at(body, pos)[0]
                    addrs.append(body[pos + 2:end])
                    pos = end
            except struct.error:  # ran off the end: the table path says how
                pos = -1
            if pos == len(body):
                return op, (addrs,)
    cursor = Cursor(body)
    op = cursor.u8()
    spec = OPS.get(op)
    if spec is None:
        raise StorageError(f"unknown opcode {op}")
    args = spec.decode_args(cursor)
    if not cursor.done():
        raise StorageError(f"trailing bytes after {spec.name.upper()} request")
    return op, args


# =============================================================================
# response encoding / decoding
# =============================================================================

def encode_ok(payload: bytes = b"") -> bytes:
    return encode_frame(bytes([Status.OK]) + payload)


def encode_not_found() -> bytes:
    return encode_frame(bytes([Status.NOT_FOUND]))


def encode_error(message: str) -> bytes:
    return encode_frame(bytes([Status.ERROR]) + message.encode("utf-8", "replace"))


def encode_not_primary(primary: str) -> bytes:
    """Replica write rejection; payload is the primary's ``host:port``."""
    return encode_frame(bytes([Status.NOT_PRIMARY]) + primary.encode("utf-8"))


def encode_moved(address: str, manifest_epoch: int, shard_id: int) -> bytes:
    """Cluster referral: the shard now lives at ``address``.

    The epoch lets clients discard stale manifests monotonically; the
    shard id lets them patch a single routing entry without a full
    manifest refresh.
    """
    return encode_frame(
        bytes([Status.MOVED])
        + _U64.pack(manifest_epoch)
        + _U16.pack(shard_id)
        + address.encode("utf-8")
    )


def encode_value_response(value: Optional[bytes]) -> bytes:
    """GET / GET_AT response."""
    if value is None:
        return encode_not_found()
    return _VALUE_HEAD.pack(5 + len(value), Status.OK, len(value)) + value


def encode_height_response(height: int) -> bytes:
    """PUT response: the block the write is assigned to."""
    return encode_ok(_U64.pack(height))


def encode_root_response(info: RootInfo) -> bytes:
    """ROOT / FLUSH response."""
    return encode_ok(
        pack_bytes16(info.digest) + _U64.pack(info.version) + _U64.pack(info.height)
    )


def encode_blob_response(blob: bytes) -> bytes:
    """PROV / STATS / METRICS response."""
    return encode_ok(pack_bytes32(blob))


def check_status(cursor: Cursor) -> int:
    """Consume the status byte; raises on ERROR and referral frames.

    This is the *single* decode point for referrals: every response
    decoder funnels through here, so NOT_PRIMARY and MOVED surface as
    :class:`Referral` subclasses uniformly across all ops.
    """
    status = cursor.u8()
    if status == Status.ERROR:
        raise StorageError(
            f"server error: {cursor.data[cursor.pos:].decode('utf-8', 'replace')}"
        )
    if status == Status.NOT_PRIMARY:
        raise NotPrimaryError(cursor.data[cursor.pos:].decode("utf-8", "replace"))
    if status == Status.MOVED:
        epoch = cursor.u64()
        shard_id = cursor.u16()
        raise MovedError(
            cursor.data[cursor.pos:].decode("utf-8", "replace"), epoch, shard_id
        )
    return status


def decode_value_response(body: bytes) -> Optional[bytes]:
    if len(body) >= 5 and body[0] == Status.OK:
        end = 5 + _U32.unpack_from(body, 1)[0]
        if end <= len(body):
            return body[5:end]
    cursor = Cursor(body)
    if check_status(cursor) == Status.NOT_FOUND:
        return None
    return cursor.bytes32()


def decode_height_response(body: bytes) -> int:
    cursor = Cursor(body)
    check_status(cursor)
    return cursor.u64()


def decode_root_response(body: bytes) -> RootInfo:
    cursor = Cursor(body)
    check_status(cursor)
    return RootInfo(digest=cursor.bytes16(), version=cursor.u64(), height=cursor.u64())


def decode_blob_response(body: bytes) -> bytes:
    cursor = Cursor(body)
    check_status(cursor)
    return cursor.bytes32()


def decode_prov_response(body: bytes) -> object:
    return pickle.loads(decode_blob_response(body))


def decode_text_response(body: bytes) -> str:
    """METRICS response: a utf-8 text blob."""
    return decode_blob_response(body).decode("utf-8")


def decode_json_response(body: bytes) -> dict:
    """STATS / CLUSTER / ADMIN responses: a JSON blob."""
    return json.loads(decode_text_response(body))


def encode_multi_get_response(values: List[Optional[bytes]]) -> bytes:
    """MULTI_GET response: per-key results, positionally matched.

    A per-key miss is a ``present=0`` flag rather than a frame-level
    NOT_FOUND — one frame answers every key in the batch.
    """
    pack = _PRESENT_HEAD.pack
    payload = b"".join(
        [b"\x00" if value is None else pack(1, len(value)) + value for value in values]
    )
    return _COUNTED_HEAD.pack(3 + len(payload), Status.OK, len(values)) + payload


def decode_multi_get_response(body: bytes) -> List[Optional[bytes]]:
    if len(body) >= 3 and body[0] == Status.OK:
        values: List[Optional[bytes]] = []
        pos, u32_at = 3, _U32.unpack_from
        try:
            for _ in range(_U16.unpack_from(body, 1)[0]):
                if body[pos]:
                    end = pos + 5 + u32_at(body, pos + 1)[0]
                    values.append(body[pos + 5:end])
                    pos = end
                else:
                    values.append(None)
                    pos += 1
        except (struct.error, IndexError):  # ran off the end: say so below
            pos = -1
        if pos == len(body):
            return values
    cursor = Cursor(body)
    check_status(cursor)
    values = [cursor.bytes32() if cursor.u8() else None for _ in range(cursor.u16())]
    if not cursor.done():
        raise StorageError("trailing bytes after MULTI_GET response")
    return values


#: One scan result triple: (address, written-at height, value).
ScanRow = Tuple[bytes, int, bytes]


def encode_scan_response(
    rows: List[ScanRow], continuation: Optional[bytes], height: int
) -> bytes:
    """One scan result page; ``continuation`` is the next unreturned
    address when the scan has more (``None`` on the final page), and
    ``height`` is the snapshot height the page was served at."""
    if continuation is not None:
        parts = [bytes([1]), pack_bytes16(continuation)]
    else:
        parts = [bytes([0])]
    parts.append(_U64.pack(height))
    parts.append(_U32.pack(len(rows)))
    for addr, blk, value in rows:
        parts.append(pack_bytes16(addr) + _U64.pack(blk) + pack_bytes32(value))
    return encode_ok(b"".join(parts))


def decode_scan_response(
    body: bytes,
) -> Tuple[List[ScanRow], Optional[bytes], int]:
    cursor = Cursor(body)
    check_status(cursor)
    continuation = cursor.bytes16() if cursor.u8() else None
    height = cursor.u64()
    count = cursor.u32()
    rows = [
        (cursor.bytes16(), cursor.u64(), cursor.bytes32()) for _ in range(count)
    ]
    return rows, continuation, height


#: REPL_SUBSCRIBE accepted: the primary's committed height — the same
#: ``u64 height`` payload a PUT is answered with.
encode_repl_handshake = encode_height_response
decode_repl_handshake = decode_height_response


def encode_repl_record(record: bytes) -> bytes:
    """One stream frame: an OK status wrapping one raw WAL record."""
    return encode_ok(record)


def decode_repl_record(body: bytes) -> bytes:
    """Unwrap one stream frame back to the raw WAL record bytes."""
    cursor = Cursor(body)
    check_status(cursor)
    return cursor.data[cursor.pos:]


# =============================================================================
# the op table
# =============================================================================

READ, WRITE, CONTROL, STREAM = "read", "write", "control", "stream"

#: Classes whose ops touch shard data: they obey MOVED referrals.
DATA_CLASSES = (READ, WRITE)


@dataclass(frozen=True)
class OpSpec:
    """One row of the op table: all the serving layer knows about an op.

    ``addresses(args)`` yields the addresses the decoded request routes
    by (``None``: it carries no routable key).  ``encode(*args)`` builds
    the request frame, ``decode_args(cursor)`` reads its payload back
    into ``args``, and ``decode(body)`` turns the response body into the
    typed result (funnelling through :func:`check_status`).
    """

    op: int
    name: str  # STATS / metrics label
    kind: str  # READ / WRITE / CONTROL / STREAM
    addresses: Optional[Callable[[tuple], Sequence[bytes]]]
    encode: Callable[..., bytes]
    decode_args: Callable[[Cursor], tuple]
    decode: Callable[[bytes], object]


def _first_arg(args: tuple) -> tuple:
    return args[:1]


def _bare(op: int, name: str, kind: str, decode: Callable) -> OpSpec:
    """An opcode-only request."""
    encode = partial(encode_simple, op)
    return OpSpec(op, name, kind, None, encode, lambda c: (), decode)


#: opcode -> spec, in opcode order (the order STATS["ops"] reports).
OPS: Dict[int, OpSpec] = {
    spec.op: spec
    for spec in (
        OpSpec(Op.PUT, "put", WRITE, _first_arg, encode_put,
               lambda c: (c.bytes16(), c.bytes32()), decode_height_response),
        OpSpec(Op.GET, "get", READ, _first_arg, encode_get,
               lambda c: (c.bytes16(),), decode_value_response),
        OpSpec(Op.GET_AT, "get_at", READ, _first_arg, encode_get_at,
               lambda c: (c.bytes16(), c.u64()), decode_value_response),
        OpSpec(Op.PROV, "prov", READ, _first_arg, encode_prov,
               lambda c: (c.bytes16(), c.u64(), c.u64()), decode_prov_response),
        _bare(Op.ROOT, "root", CONTROL, decode_root_response),
        _bare(Op.STATS, "stats", CONTROL, decode_json_response),
        _bare(Op.FLUSH, "flush", WRITE, decode_root_response),
        OpSpec(Op.REPL_SUBSCRIBE, "repl", STREAM, None, encode_repl_subscribe,
               lambda c: (c.u64(),), decode_repl_handshake),
        OpSpec(Op.SCAN, "scan", READ, None, encode_scan,
               lambda c: (c.bytes16(), c.bytes16(), c.u64(), c.u32()),
               decode_scan_response),
        OpSpec(Op.MULTI_GET, "multi_get", READ, lambda args: args[0],
               encode_multi_get,
               lambda c: ([c.bytes16() for _ in range(_check_batch_count(c.u16()))],),
               decode_multi_get_response),
        OpSpec(Op.MULTI_PUT, "multi_put", WRITE,
               lambda args: [addr for addr, _ in args[0]], encode_multi_put,
               lambda c: ([(c.bytes16(), c.bytes32())
                           for _ in range(_check_batch_count(c.u16()))],),
               decode_height_response),
        _bare(Op.METRICS, "metrics", CONTROL, decode_text_response),
        _bare(Op.CLUSTER, "cluster", CONTROL, decode_json_response),
        OpSpec(Op.ADMIN, "admin", CONTROL, None, encode_admin,
               lambda c: (c.bytes32(),), decode_json_response),
    )
}


# =============================================================================
# frame IO
# =============================================================================

class FrameBuffer:
    """Split a byte stream into frame bodies, whatever the chunking.

    Both ends of the wire hand each chunk they receive to :meth:`feed`
    and get back the bodies it completed.  A chunk that holds whole frames (the common case) is
    sliced in place; bytes of an unfinished frame are kept until the
    chunk that finishes it, without re-parsing or re-copying in between.
    """

    __slots__ = ("_partial", "_need")

    def __init__(self) -> None:
        self._partial = bytearray()  # an unfinished frame, prefix included
        self._need = 0  # its size, once known (4 while the prefix is cut)

    def feed(self, data: bytes) -> List[bytes]:
        """The bodies ``data`` completes, in order.  A length prefix
        above :data:`MAX_FRAME` raises ``StorageError``: the stream
        cannot be re-synchronized and its owner must drop it."""
        partial = self._partial
        if partial:
            partial += data
            if len(partial) < self._need:
                return []
            data = bytes(partial)
            partial.clear()
        bodies: List[bytes] = []
        pos, size, need = 0, len(data), 4
        while size - pos >= 4:
            (length,) = _U32.unpack_from(data, pos)
            if length > MAX_FRAME:
                raise StorageError(f"frame of {length} bytes exceeds MAX_FRAME")
            need = 4 + length
            if size - pos < need:
                break
            bodies.append(data[pos + 4:pos + need])
            pos += need
            need = 4
        if pos < size:
            partial += data[pos:] if pos else data
            self._need = need
        return bodies


class FrameProtocol(asyncio.BufferedProtocol):
    """The receiving half of both ends of the wire.

    A ``BufferedProtocol``, so the loop ``recv_into``s one reusable
    buffer: under a plain ``Protocol`` it allocates (and shrinks) a fresh
    256 KiB ``bytes`` for every read, which costs more than the read.
    Each chunk goes to ``data_received`` — the subclass's — as ``bytes``;
    ``self._frames`` is the :class:`FrameBuffer` to cut it with.
    """

    def __init__(self) -> None:
        self._inbox = memoryview(bytearray(64 * 1024))
        self._frames = FrameBuffer()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._inbox

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(bytes(self._inbox[:nbytes]))
