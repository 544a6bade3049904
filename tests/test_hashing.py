"""Unit tests for the hashing helpers."""

import hashlib

from repro.common.hashing import (
    DIGEST_SIZE,
    EMPTY_DIGEST,
    hash_bytes,
    hash_concat,
)


def test_hash_bytes_is_sha256():
    assert hash_bytes(b"abc") == hashlib.sha256(b"abc").digest()


def test_digest_size():
    assert len(hash_bytes(b"")) == DIGEST_SIZE == 32


def test_empty_digest_matches_empty_hash():
    assert EMPTY_DIGEST == hash_bytes(b"")


def test_hash_concat_equals_manual():
    parts = [b"a", b"bb", b"ccc"]
    assert hash_concat(parts) == hash_bytes(b"abbccc")


def test_hash_concat_accepts_generator():
    assert hash_concat(p for p in [b"x", b"y"]) == hash_bytes(b"xy")
