"""Unit and property tests for the Merkle B+-tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import write_oracle
from repro.mbtree import MBTree
from repro.mbtree.node import Internal


def build(entries, order=4):
    tree = MBTree(order=order, key_width=8)
    for key, value in entries:
        tree.insert(key, value)
    return tree


def test_empty_tree():
    tree = MBTree()
    assert len(tree) == 0
    assert tree.get(1) is None
    assert tree.floor_search(10) is None


def test_insert_and_get():
    tree = build([(5, b"five"), (1, b"one"), (9, b"nine")])
    assert tree.get(5) == b"five"
    assert tree.get(1) == b"one"
    assert tree.get(2) is None
    assert len(tree) == 3


def test_duplicate_insert_overwrites():
    tree = build([(5, b"old")])
    tree.insert(5, b"new")
    assert tree.get(5) == b"new"
    assert len(tree) == 1


def test_items_sorted():
    keys = random.Random(3).sample(range(10000), 500)
    tree = build([(k, str(k).encode()) for k in keys])
    assert [k for k, _ in tree.items()] == sorted(keys)


def test_floor_search_semantics():
    tree = build([(10, b"a"), (20, b"b"), (30, b"c")])
    assert tree.floor_search(5) is None
    assert tree.floor_search(10) == (10, b"a")
    assert tree.floor_search(25) == (20, b"b")
    assert tree.floor_search(99) == (30, b"c")


def test_range_items():
    tree = build([(i, bytes([i])) for i in range(0, 100, 10)])
    assert [k for k, _ in tree.range_items(15, 45)] == [20, 30, 40]


def test_root_hash_changes_on_insert():
    tree = build([(1, b"a")])
    before = tree.root_hash()
    tree.insert(2, b"b")
    assert tree.root_hash() != before


def test_root_hash_deterministic_for_same_insert_order():
    # B+-tree shape depends on insertion order (unlike a trie); blockchain
    # execution is deterministic, so equal insert order => equal root.
    entries = [(i, bytes([i % 250])) for i in range(200)]
    random.Random(5).shuffle(entries)
    assert build(entries).root_hash() == build(entries).root_hash()


def test_root_hash_depends_on_values():
    a = build([(1, b"x")])
    b = build([(1, b"y")])
    assert a.root_hash() != b.root_hash()


def test_clear():
    tree = build([(i, b"v") for i in range(50)])
    tree.clear()
    assert len(tree) == 0
    assert tree.get(3) is None


def test_order_must_be_at_least_three():
    with pytest.raises(ValueError):
        MBTree(order=2)


def test_large_tree_consistency():
    rng = random.Random(11)
    model = {}
    tree = MBTree(order=8, key_width=8)
    for _ in range(3000):
        key = rng.randrange(10**9)
        value = rng.randbytes(4)
        tree.insert(key, value)
        model[key] = value
    assert len(tree) == len(model)
    for key in rng.sample(list(model), 200):
        assert tree.get(key) == model[key]
    assert list(tree.items()) == sorted(model.items())


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=2**40),
        st.binary(min_size=1, max_size=8),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=0, max_value=2**40),
)
def test_floor_search_matches_model(mapping, probe):
    tree = build(mapping.items(), order=5)
    expected_keys = [k for k in mapping if k <= probe]
    found = tree.floor_search(probe)
    if not expected_keys:
        assert found is None
    else:
        best = max(expected_keys)
        assert found == (best, mapping[best])


def oracle_digest(node, key_width):
    """A node's digest by the parts-list routines of ``write_oracle``."""
    if type(node) is Internal:
        children = [oracle_digest(child, key_width) for child in node.children]
        return write_oracle.internal_digest(node.keys, children, key_width)
    return write_oracle.leaf_digest(node.keys, node.values, key_width)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**64 - 1), st.binary(max_size=12)),
        min_size=1,
        max_size=150,
    ),
    st.integers(min_value=3, max_value=6),
    st.sampled_from([8, 9, 40]),
    st.integers(min_value=1, max_value=40),
)
def test_node_digests_match_the_parts_list_oracle(inserts, order, key_width, every):
    # Roots read between batches of inserts also check that a re-hash
    # after mark_dirty reaches the same bytes as hashing from scratch.
    tree = MBTree(order=order, key_width=key_width)
    for index, (key, value) in enumerate(inserts, 1):
        tree.insert(key % 7 if index % 5 == 0 else key, value)  # some overwrites
        if index % every == 0 or index == len(inserts):
            assert tree.root_hash() == oracle_digest(tree._root, key_width)
