"""Tests for streaming Merkle files (Algorithm 4) and range proofs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError, VerificationError
from repro.core.merklefile import (
    MerkleFile,
    MerkleFileBuilder,
    layer_sizes,
    verify_range_proof,
)
from repro.diskio.pagefile import PagedFile
from repro.merkle import MerkleTree

KEY_WIDTH = 16
PAGE = 512


def make_pairs(count):
    return [(i * 2**64 + 1, f"value{i}".encode().ljust(8, b"\x00")) for i in range(count)]


def build(tmp_path, pairs, fanout, name="m.mrk"):
    file = PagedFile(str(tmp_path / name), PAGE)
    builder = MerkleFileBuilder(file, len(pairs), fanout)
    builder.add([key.to_bytes(KEY_WIDTH, "big") + value for key, value in pairs])
    root = builder.finish()
    return MerkleFile(file, len(pairs), fanout), root


def reference_root(pairs, fanout):
    """The streaming file must equal an eager m-ary MHT over leaf payloads."""
    tree = MerkleTree(
        [key.to_bytes(KEY_WIDTH, "big") + value for key, value in pairs], fanout=fanout
    )
    return tree.root


def test_layer_sizes():
    assert layer_sizes(1, 2) == [1]
    assert layer_sizes(4, 2) == [4, 2, 1]
    assert layer_sizes(5, 2) == [5, 3, 2, 1]
    assert layer_sizes(9, 3) == [9, 3, 1]


def test_layer_sizes_rejects_empty():
    with pytest.raises(StorageError):
        layer_sizes(0, 2)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 16, 17, 100])
@pytest.mark.parametrize("fanout", [2, 3, 4, 8])
def test_streaming_root_matches_eager_tree(tmp_path, count, fanout):
    pairs = make_pairs(count)
    merkle, root = build(tmp_path, pairs, fanout, name=f"m{count}_{fanout}.mrk")
    assert root == reference_root(pairs, fanout)
    assert merkle.root() == root


def test_wrong_count_rejected(tmp_path):
    file = PagedFile(str(tmp_path / "w.mrk"), PAGE)
    builder = MerkleFileBuilder(file, 3, 2)
    builder.add([b"a"])
    with pytest.raises(StorageError):
        builder.finish()


def test_too_many_adds_rejected(tmp_path):
    file = PagedFile(str(tmp_path / "t.mrk"), PAGE)
    builder = MerkleFileBuilder(file, 1, 2)
    builder.add([b"a"])
    with pytest.raises(StorageError):
        builder.add([b"b"])


def test_range_proof_verifies(tmp_path):
    pairs = make_pairs(50)
    merkle, root = build(tmp_path, pairs, fanout=4)
    proof = merkle.prove_range(10, 20)
    verify_range_proof(pairs[10:21], proof, root, KEY_WIDTH)


def test_full_range_proof(tmp_path):
    pairs = make_pairs(9)
    merkle, root = build(tmp_path, pairs, fanout=3)
    proof = merkle.prove_range(0, 8)
    verify_range_proof(pairs, proof, root, KEY_WIDTH)


def test_single_leaf_proof(tmp_path):
    pairs = make_pairs(1)
    merkle, root = build(tmp_path, pairs, fanout=4)
    proof = merkle.prove_range(0, 0)
    verify_range_proof(pairs, proof, root, KEY_WIDTH)


def test_tampered_entry_fails(tmp_path):
    pairs = make_pairs(30)
    merkle, root = build(tmp_path, pairs, fanout=4)
    proof = merkle.prove_range(5, 9)
    tampered = list(pairs[5:10])
    tampered[2] = (tampered[2][0], b"EVIL!!!!")
    with pytest.raises(VerificationError):
        verify_range_proof(tampered, proof, root, KEY_WIDTH)


def test_wrong_range_fails(tmp_path):
    pairs = make_pairs(30)
    merkle, root = build(tmp_path, pairs, fanout=4)
    proof = merkle.prove_range(5, 9)
    with pytest.raises(VerificationError):
        verify_range_proof(pairs[6:11], proof, root, KEY_WIDTH)


def test_bad_proof_range_rejected(tmp_path):
    pairs = make_pairs(5)
    merkle, _root = build(tmp_path, pairs, fanout=2)
    with pytest.raises(StorageError):
        merkle.prove_range(3, 9)


def test_proof_size_grows_with_fanout(tmp_path):
    pairs = make_pairs(200)
    small, root_small = build(tmp_path, pairs, fanout=2, name="a.mrk")
    large, root_large = build(tmp_path, pairs, fanout=32, name="b.mrk")
    proof_small = small.prove_range(100, 100)
    proof_large = large.prove_range(100, 100)
    # Wider fanout => shallower tree but bigger sibling groups.
    assert len(proof_large.sibling_layers) < len(proof_small.sibling_layers)


def test_hash_at_out_of_range(tmp_path):
    pairs = make_pairs(4)
    merkle, _root = build(tmp_path, pairs, fanout=2)
    with pytest.raises(StorageError):
        merkle.hash_at(0, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=2, max_value=6), st.data())
def test_any_range_verifies_property(tmp_path_factory, count, fanout, data):
    tmp_path = tmp_path_factory.mktemp("mrk")
    pairs = make_pairs(count)
    merkle, root = build(tmp_path, pairs, fanout)
    lo = data.draw(st.integers(min_value=0, max_value=count - 1))
    hi = data.draw(st.integers(min_value=lo, max_value=count - 1))
    proof = merkle.prove_range(lo, hi)
    verify_range_proof(pairs[lo : hi + 1], proof, root, KEY_WIDTH)
