"""Streaming export / import of a snapshot-consistent keyspace slice.

``export_slice`` walks ``engine.scan``'s cursor stack page by page —
bounded memory however large the slice — and writes a portable stream:

* header: ``b"REPX"`` magic, a u32-length-prefixed JSON document
  (format version, ``addr_size``, the resolved ``at_blk``, the address
  bounds, the source root digest and height), then the document's crc32;
* frames: u32 payload length, payload, u32 payload crc32.  A payload is
  a u32 triple count followed by ``count`` packed triples
  ``addr | blk:u64 | vlen:u32 | value`` — the live version of each
  address at ``at_blk``, ascending by address;
* trailer: a zero length marker, then u64 total triples and the crc32
  chained over every frame payload, so truncation anywhere is detected.

All integers are big-endian.  Historical ``at_blk`` scans are stable
under concurrent appends, so an export at a fixed height is a consistent
slice even from a live engine.

``import_slice`` verifies the stream and replays it into an engine via
``put_many``, one block per distinct source height in ascending order,
preserving every ``<addr, blk>`` compound key.  Frames arrive
address-ordered, so the slice is buffered once to regroup by height —
imports are bounded by the slice size, exports by the page size.

For a write-once workload exported over the full address range at the
source's current height, replaying reproduces the source engine
byte-for-byte — same flush boundaries, same runs, same ``Hstate`` (the
round-trip oracle the tests pin).  Slices of overwrite-heavy histories
carry only the surviving versions, so the imported root is a digest of
the *slice*, not the source.
"""

from __future__ import annotations

import json
import zlib
from typing import TYPE_CHECKING, Any, BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.common.codec import U64, Cursor, decode_u32, encode_u32, pack_bytes32
from repro.common.errors import IntegrityError, StorageError
from repro.core.cursor import addr_successor

if TYPE_CHECKING:
    from repro.core.storage import Cole

MAGIC = b"REPX"
FORMAT_VERSION = 1

#: Triples per frame — a few tens of KB per frame at default sizes.
FRAME_TRIPLES = 512

#: Every key a header carries; a stream whose header lacks one is refused.
_HEADER_KEYS = {
    "version", "addr_size", "at_blk", "addr_low", "addr_high", "source_root", "source_blk"
}

#: Addresses fetched per scan page (one gate hold each).
SCAN_PAGE = 1024

Triple = Tuple[bytes, int, bytes]


def _write_frame(out: BinaryIO, payload: bytes) -> None:
    out.write(pack_bytes32(payload) + encode_u32(zlib.crc32(payload)))


def _pack_triples(triples: List[Triple], addr_size: int) -> bytes:
    parts = [encode_u32(len(triples))]
    for addr, blk, value in triples:
        if len(addr) != addr_size:
            raise StorageError(f"address must be {addr_size} bytes")
        parts.append(addr + U64.pack(blk) + pack_bytes32(value))
    return b"".join(parts)


def export_slice(
    engine: Cole,
    out: BinaryIO,
    *,
    at_blk: Optional[int] = None,
    addr_low: Optional[bytes] = None,
    addr_high: Optional[bytes] = None,
    page: int = SCAN_PAGE,
) -> Dict[str, Any]:
    """Stream the live version of every address in
    ``[addr_low, addr_high]`` as of ``at_blk`` (default: the engine's
    current height) into ``out``.  Returns summary stats."""
    addr_size = engine.params.system.addr_size
    low = addr_low if addr_low is not None else b"\x00" * addr_size
    high = addr_high if addr_high is not None else b"\xff" * addr_size
    if len(low) != addr_size or len(high) != addr_size:
        raise StorageError(f"export bounds must be {addr_size}-byte addresses")
    if at_blk is None:
        # Latest height the engine knows (a freshly recovered engine's
        # current_blk stays 0 until the next begin_block).
        resolved_at = max(engine.last_blk, 0)
    else:
        resolved_at = at_blk
    header = {
        "version": FORMAT_VERSION,
        "addr_size": addr_size,
        "at_blk": resolved_at,
        "addr_low": low.hex(),
        "addr_high": high.hex(),
        "source_root": engine.root_digest().hex(),
        "source_blk": engine.current_blk,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    out.write(MAGIC)
    _write_frame(out, payload)

    total = 0
    stream_crc = 0
    cursor = low
    while True:
        triples = engine.scan(cursor, high, at_blk=resolved_at, limit=page)
        for start in range(0, len(triples), FRAME_TRIPLES):
            chunk = triples[start : start + FRAME_TRIPLES]
            frame = _pack_triples(chunk, addr_size)
            _write_frame(out, frame)
            stream_crc = zlib.crc32(frame, stream_crc)
            total += len(chunk)
        if len(triples) < (page if page is not None else 1):
            break
        successor = addr_successor(triples[-1][0])
        if successor is None or successor > high:
            break
        cursor = successor
    # Trailer: zero-length marker + totals, so a truncated stream or a
    # dropped frame fails loudly at import.
    out.write(encode_u32(0) + U64.pack(total) + encode_u32(stream_crc))
    return {"triples": total, "at_blk": resolved_at, "root": header["source_root"]}


def _read_exact(inp: BinaryIO, count: int, what: str) -> bytes:
    data = inp.read(count)
    if len(data) != count:
        raise IntegrityError(f"export stream truncated reading {what}")
    return data


def read_header(inp: BinaryIO) -> Dict[str, Any]:
    """Read and validate the stream header, leaving ``inp`` at frame 0."""
    if _read_exact(inp, len(MAGIC), "magic") != MAGIC:
        raise IntegrityError("not a repro export stream (bad magic)")
    payload = _read_exact(inp, decode_u32(_read_exact(inp, 4, "header length")), "header")
    if zlib.crc32(payload) != decode_u32(_read_exact(inp, 4, "header crc")):
        raise IntegrityError("export header corrupted (crc mismatch)")
    try:
        header = json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        raise IntegrityError(f"export header is not JSON: {exc}") from None
    if not isinstance(header, dict) or not _HEADER_KEYS <= header.keys():
        raise IntegrityError(f"export header lacks one of {sorted(_HEADER_KEYS)}")
    if header["version"] != FORMAT_VERSION:
        raise IntegrityError(
            f"unsupported export format version: {header['version']!r}"
        )
    return header


def iter_triples(inp: BinaryIO, header: Dict[str, Any]) -> Iterator[Triple]:
    """Yield the stream's triples, verifying every frame and the trailer."""
    addr_size = header["addr_size"]
    total = 0
    stream_crc = 0
    while True:
        length = decode_u32(_read_exact(inp, 4, "frame length"))
        if length == 0:
            break
        payload = _read_exact(inp, length, "frame")
        if zlib.crc32(payload) != decode_u32(_read_exact(inp, 4, "frame crc")):
            raise IntegrityError("export frame corrupted (crc mismatch)")
        stream_crc = zlib.crc32(payload, stream_crc)
        cursor = Cursor(payload)
        try:
            triples = [(cursor.take(addr_size), cursor.u64(), cursor.bytes32())
                       for _ in range(cursor.u32())]
            if not cursor.done():
                raise StorageError("trailing bytes after the frame's triples")
        except StorageError as exc:
            raise IntegrityError(f"export frame malformed: {exc}") from None
        total += len(triples)
        yield from triples
    trailer = Cursor(_read_exact(inp, 12, "trailer"))
    expect_total, expect_crc = trailer.u64(), trailer.u32()
    if expect_total != total:
        raise IntegrityError(
            f"export stream lost frames ({total} triples, trailer says {expect_total})"
        )
    if expect_crc != stream_crc:
        raise IntegrityError("export stream corrupted (trailer crc mismatch)")


def import_slice(engine: Cole, inp: BinaryIO, *, batch: int = 4096) -> Dict[str, Any]:
    """Replay an export stream into ``engine``; returns summary stats.

    The engine must be fresh enough to accept the slice's heights
    (``begin_block`` enforces non-decreasing heights).  Triples regroup
    by source height and replay ascending, ``batch`` puts per
    ``put_many`` dispatch.
    """
    header = read_header(inp)
    addr_size = engine.params.system.addr_size
    if header["addr_size"] != addr_size:
        raise StorageError(
            f"export was taken with addr_size={header['addr_size']}, "
            f"engine uses {addr_size}"
        )
    by_blk: Dict[int, List[Tuple[bytes, bytes]]] = {}
    count = 0
    for addr, blk, value in iter_triples(inp, header):
        by_blk.setdefault(blk, []).append((addr, value))
        count += 1
    root: Optional[bytes] = None
    for blk in sorted(by_blk):
        engine.begin_block(blk)
        pairs = by_blk[blk]
        for start in range(0, len(pairs), batch):
            engine.put_many(pairs[start : start + batch])
        root = engine.commit_block()
    if root is None:
        root = engine.root_digest()
    return {
        "triples": count,
        "blocks": len(by_blk),
        "at_blk": header["at_blk"],
        "root": root.hex(),
        "source_root": header["source_root"],
    }
