"""MB-tree nodes.

Leaf digests commit to the full entry list; internal digests commit to the
separator keys and the child digests, following the MB-tree construction
[29] where every index node is augmented with the hashes of its children.
Domain-separation prefixes (``b"L"`` / ``b"I"``) prevent a leaf from being
re-interpreted as an internal node in a forged proof.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import sha256
from typing import List, Optional

from repro.common.hashing import Digest


def leaf_digest(keys: List[int], values: List[bytes], key_width: int) -> Digest:
    """Digest committing to a leaf's entries, in order:
    ``h(b"L" || key_1 || value_1 || ...)``, keys ``key_width``-byte big-endian."""
    parts = [b"L"]
    append = parts.append
    for key, value in zip(keys, values):
        append(key.to_bytes(key_width, "big"))
        append(value)
    return sha256(b"".join(parts)).digest()


def internal_digest(keys: List[int], child_digests: List[Digest], key_width: int) -> Digest:
    """Digest committing to an internal node's separators and children:
    ``h(b"I" || key_1 || ... || digest_1 || ...)``."""
    parts = [b"I"]
    parts += [key.to_bytes(key_width, "big") for key in keys]
    parts += child_digests
    return sha256(b"".join(parts)).digest()


class Node:
    """Base class for MB-tree nodes; caches its digest until dirtied."""

    __slots__ = ("keys", "parent", "_digest")

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.parent: Optional["Internal"] = None
        self._digest: Optional[Digest] = None

    def mark_dirty(self) -> None:
        """Invalidate the cached digest up to the root."""
        node: Optional[Node] = self
        while node is not None and node._digest is not None:
            node._digest = None
            node = node.parent

    def digest(self, key_width: int) -> Digest:
        raise NotImplementedError


class Leaf(Node):
    """Leaf node: parallel ``keys`` / ``values`` lists plus a next pointer."""

    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__()
        self.values: List[bytes] = []
        self.next: Optional["Leaf"] = None

    def digest(self, key_width: int) -> Digest:
        if self._digest is None:
            self._digest = leaf_digest(self.keys, self.values, key_width)
        return self._digest


class Internal(Node):
    """Internal node: ``len(children) == len(keys) + 1``.

    ``keys[i]`` separates ``children[i]`` (keys < keys[i]) from
    ``children[i+1]`` (keys >= keys[i]).
    """

    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: List[Node] = []

    def digest(self, key_width: int) -> Digest:
        if self._digest is None:
            child_digests = [child.digest(key_width) for child in self.children]
            self._digest = internal_digest(self.keys, child_digests, key_width)
        return self._digest

    def child_index_for(self, key: int) -> int:
        """Index of the child subtree that would contain ``key``."""
        return bisect_right(self.keys, key)
