"""Unit tests for the fixed-width binary codecs."""

import ast
import struct
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.common.codec import (
    Cursor,
    decode_u32,
    decode_u64,
    encode_u32,
    encode_u64,
    int_to_bytes,
    pack_float,
    pack_items,
)
from repro.common.errors import StorageError


def test_u32_round_trip():
    for value in (0, 1, 0xFFFF, 2**32 - 1):
        assert decode_u32(encode_u32(value)) == value


def test_u64_round_trip():
    for value in (0, 1, 2**63, 2**64 - 1):
        assert decode_u64(encode_u64(value)) == value


def test_u32_is_big_endian():
    assert encode_u32(1) == b"\x00\x00\x00\x01"


def test_u64_width():
    assert len(encode_u64(0)) == 8


def test_decode_with_offset():
    buffer = b"\xff" * 4 + encode_u32(42)
    assert decode_u32(buffer, 4) == 42


def test_float_round_trip():
    for value in (0.0, 1.5, -2.25, 1e300, 1e-300):
        assert struct.unpack(">d", pack_float(value))[0] == value


def test_int_to_bytes_round_trip():
    big = 2**200 + 12345
    assert int.from_bytes(int_to_bytes(big, 32), "big") == big


def test_int_to_bytes_overflow_raises():
    with pytest.raises(OverflowError):
        int_to_bytes(2**64, 8)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_round_trip_property(value):
    assert decode_u64(encode_u64(value)) == value


@given(st.integers(min_value=0, max_value=2**256 - 1), st.integers(min_value=32, max_value=64))
def test_wide_int_round_trip_property(value, width):
    assert int.from_bytes(int_to_bytes(value, width), "big") == value


def test_items_round_trip_and_truncation_raises():
    items = [(b"\x01" * 20, b"value"), (b"", b"")]
    packed = pack_items(items)
    assert Cursor(packed).items(2) == items
    cursor = Cursor(packed[:-1])
    with pytest.raises(StorageError, match="truncated"):
        cursor.items(2)
    with pytest.raises(StorageError, match="64 KiB"):
        pack_items([(bytes(0x10000), b"")])


def test_cursor_take_and_rest():
    cursor = Cursor(b"\x00\x02abcdef")
    assert cursor.bytes16() == b"ab"
    assert cursor.take(1) == b"c"
    assert not cursor.done()
    assert cursor.rest() == b"def"
    assert cursor.done()


#: The integer layouts every format shares: declared once, in codec.py.
SHARED_STRUCTS = {">H", ">I", ">Q"}


def test_one_decoder_lives_in_codec():
    """``class Cursor`` and the shared u16/u32/u64 structs are defined only
    in ``common/codec.py``; the WAL record and REPX decoders unpack
    nothing themselves."""
    package = Path(repro.__file__).parent
    codec = package / "common" / "codec.py"
    walks = {package / "wal" / "record.py", package / "core" / "export.py"}
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name == "Cursor":
                kind = "class Cursor"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "Struct"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in SHARED_STRUCTS
            ):
                kind = f"Struct({node.args[0].value!r})"
            elif (
                path in walks
                and isinstance(node, ast.Attribute)
                and node.attr in ("unpack", "unpack_from")
            ):
                kind = node.attr
            else:
                continue
            if path != codec:
                found.append(f"{path.relative_to(package)}:{node.lineno} {kind}")
    assert found == []
