"""The MB-tree proper: a B+-tree whose nodes carry Merkle digests.

Only the operations COLE and CMI need are implemented:

* ``insert`` (overwriting duplicates — re-updating a state in the same
  block replaces its value);
* ``floor_search`` — largest key <= query, the rule Algorithm 6 uses with
  the sentinel key ``<addr, max_int>``;
* in-order iteration (flushing L0 to the first on-disk level scans the
  leaf level, Algorithm 1 line 5);
* ``root_hash`` and authenticated ``range_proof``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.common.hashing import Digest
from repro.mbtree.node import Internal, Leaf, Node
from repro.mbtree.proof import MBTreeProof, ProofHash, ProofInternal, ProofLeaf, ProofNode


class MBTree:
    """Merkle B+-tree over integer keys and byte-string values."""

    def __init__(self, order: int = 16, key_width: int = 40) -> None:
        """Create an empty tree.

        Args:
            order: maximum children per internal node (>= 3).
            key_width: byte width used to encode keys inside digests.
        """
        if order < 3:
            raise ValueError("order must be >= 3")
        self.order = order
        self.key_width = key_width
        self._root: Node = Leaf()
        self._size = 0

    # -- basic properties ----------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def root_hash(self) -> Digest:
        """Root digest (an empty tree is a single empty leaf)."""
        return self._root.digest(self.key_width)

    def clear(self) -> None:
        """Drop all entries (used when L0 is flushed to disk)."""
        self._root = Leaf()
        self._size = 0

    # -- insert ----------------------------------------------------------------

    def insert(self, key: int, value: bytes) -> None:
        """Insert ``key -> value``, overwriting an existing entry."""
        leaf = self._find_leaf(key)
        keys = leaf.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            leaf.values[index] = value
            leaf.mark_dirty()
            return
        keys.insert(index, key)
        leaf.values.insert(index, value)
        leaf.mark_dirty()
        self._size += 1
        if len(keys) >= self.order:
            self._split_leaf(leaf)

    def _find_leaf(self, key: int) -> Leaf:
        # The per-put descent: an exact type test and the C bisect, no
        # helper call per level (Internal is the only non-leaf node).
        node = self._root
        while type(node) is Internal:
            node = node.children[bisect_right(node.keys, key)]
        return node  # type: ignore[return-value]

    def _split_leaf(self, leaf: Leaf) -> None:
        mid = len(leaf.keys) // 2
        right = Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        leaf.mark_dirty()
        self._insert_into_parent(leaf, right.keys[0], right)

    def _split_internal(self, node: Internal) -> None:
        mid = len(node.keys) // 2
        promote = node.keys[mid]
        right = Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        for child in right.children:
            child.parent = right
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        node.mark_dirty()
        self._insert_into_parent(node, promote, right)

    def _insert_into_parent(self, left: Node, key: int, right: Node) -> None:
        parent = left.parent
        if parent is None:
            new_root = Internal()
            new_root.keys = [key]
            new_root.children = [left, right]
            left.parent = new_root
            right.parent = new_root
            self._root = new_root
            return
        index = parent.children.index(left)
        parent.keys.insert(index, key)
        parent.children.insert(index + 1, right)
        right.parent = parent
        parent.mark_dirty()
        if len(parent.children) > self.order:
            self._split_internal(parent)

    # -- lookups -----------------------------------------------------------------

    def get(self, key: int) -> Optional[bytes]:
        """Exact-match lookup."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return None

    def floor_search(self, key: int) -> Optional[Tuple[int, bytes]]:
        """Return the entry with the largest key <= ``key``, if any."""
        if self._size == 0:
            return None
        leaf = self._find_leaf(key)
        index = bisect_right(leaf.keys, key) - 1
        if index >= 0:
            return leaf.keys[index], leaf.values[index]
        # All keys in this leaf exceed `key`; the floor (if any) is the last
        # entry of the preceding leaf.  Rare enough to find by full walk.
        previous: Optional[Leaf] = None
        for candidate in self._iter_leaves():
            if candidate is leaf:
                break
            previous = candidate
        if previous is None or not previous.keys:
            return None
        return previous.keys[-1], previous.values[-1]

    def items(self) -> Iterator[Tuple[int, bytes]]:
        """Yield all entries in ascending key order."""
        for leaf in self._iter_leaves():
            yield from zip(leaf.keys, leaf.values)

    def iter_from(self, key: int) -> Iterator[Tuple[int, bytes]]:
        """Yield entries with key >= ``key`` in ascending order.

        Finds the starting leaf directly (one root-to-leaf descent) and
        then rides the leaf chain — an L0 group's source iterator in a
        range scan (:mod:`repro.core.cursor`).  The tree must not be
        mutated while the iterator is live.
        """
        if self._size == 0:
            return
        leaf: Optional[Leaf] = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        while leaf is not None:
            for position in range(index, len(leaf.keys)):
                yield leaf.keys[position], leaf.values[position]
            leaf = leaf.next
            index = 0

    def range_items(self, low: int, high: int) -> Iterator[Tuple[int, bytes]]:
        """Yield entries with ``low <= key <= high`` in ascending order."""
        for key, value in self.items():
            if key > high:
                return
            if key >= low:
                yield key, value

    def _iter_leaves(self) -> Iterator[Leaf]:
        node = self._root
        while isinstance(node, Internal):
            node = node.children[0]
        leaf: Optional[Leaf] = node  # type: ignore[assignment]
        while leaf is not None:
            yield leaf
            leaf = leaf.next

    # -- authenticated range proofs ------------------------------------------------

    def range_proof(self, low: int, high: int) -> Tuple[List[Tuple[int, bytes]], MBTreeProof]:
        """Authenticated range query for ``[low, high]`` with floor extension.

        Returns the result entries (including the *floor* entry just below
        ``low``, which provenance queries need — it is the version valid at
        the range's lower bound) and a proof subtree from which the verifier
        reconstructs the root digest and checks completeness.
        """
        floor = self.floor_search(low)
        effective_low = floor[0] if floor is not None else low
        subtree = self._build_proof(self._root, effective_low, high)
        proof = MBTreeProof(root=subtree, low=low, high=high)
        results = [
            (key, value)
            for key, value in self.range_items(effective_low, high)
        ]
        return results, proof

    def _build_proof(self, node: Node, low: int, high: int) -> ProofNode:
        if isinstance(node, Leaf):
            return ProofLeaf(keys=list(node.keys), values=list(node.values))
        assert isinstance(node, Internal)
        first = node.child_index_for(low)
        last = node.child_index_for(high)
        children: List[ProofNode] = []
        for index, child in enumerate(node.children):
            if first <= index <= last:
                children.append(self._build_proof(child, low, high))
            else:
                children.append(ProofHash(digest=child.digest(self.key_width)))
        return ProofInternal(keys=list(node.keys), children=children)
