"""MPT node types and their binary codec.

Three node kinds, as in Figure 1: leaf (path remainder + value), extension
(shared path + one child), branch (16 children + optional value).  A
node's digest is the SHA-256 of its serialization; children are referenced
by digest, which is also the node's key in the backing KV store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.common.codec import decode_u32, encode_u32
from repro.common.errors import StorageError
from repro.common.hashing import Digest, hash_bytes
from repro.mpt.nibbles import Nibbles, pack_nibbles, unpack_nibbles

_LEAF = 0x4C  # 'L'
_EXTENSION = 0x45  # 'E'
_BRANCH = 0x42  # 'B'


@dataclass(frozen=True)
class LeafNode:
    """Terminal node: remaining path + state value."""

    path: Nibbles
    value: bytes


@dataclass(frozen=True)
class ExtensionNode:
    """A shared path segment pointing at a single child."""

    path: Nibbles
    child: Digest


@dataclass(frozen=True)
class BranchNode:
    """16-way branch with an optional value terminating exactly here."""

    children: Tuple[Optional[Digest], ...]  # length 16
    value: Optional[bytes]


MPTNode = Union[LeafNode, ExtensionNode, BranchNode]


def encode_node(node: MPTNode) -> bytes:
    """Serialize a node (stable encoding; input to the node digest)."""
    if isinstance(node, LeafNode):
        return bytes([_LEAF]) + pack_nibbles(node.path) + node.value
    if isinstance(node, ExtensionNode):
        return bytes([_EXTENSION]) + pack_nibbles(node.path) + node.child
    if isinstance(node, BranchNode):
        if len(node.children) != 16:
            raise StorageError("branch node must have 16 child slots")
        bitmap = 0
        body = bytearray()
        for index, child in enumerate(node.children):
            if child is not None:
                bitmap |= 1 << index
                body += child
        header = bytes([_BRANCH, bitmap & 0xFF, bitmap >> 8])
        if node.value is None:
            return header + b"\x00" + bytes(body)
        return header + b"\x01" + encode_u32(len(node.value)) + node.value + bytes(body)
    raise StorageError(f"unknown node type {type(node).__name__}")


def decode_node(data: bytes) -> MPTNode:
    """Inverse of :func:`encode_node`; a node cut short raises
    ``StorageError`` (a leaf's value runs to the end of the node).  Checked
    slices, not a ``Cursor``: that costs ~1.5× per node read."""
    if not data:
        raise StorageError("empty MPT node")
    tag = data[0]
    if tag == _LEAF:
        path, consumed = unpack_nibbles(data[1:])
        return LeafNode(path=path, value=data[1 + consumed :])
    if tag == _EXTENSION:
        path, consumed = unpack_nibbles(data[1:])
        child = data[1 + consumed :]
        if len(child) != 32:
            raise StorageError("extension child must be a 32-byte digest")
        return ExtensionNode(path=path, child=child)
    if tag == _BRANCH:
        has_value = len(data) >= 4 and data[3] == 1
        offset = 8 if has_value else 4
        if offset > len(data):
            raise StorageError(f"MPT branch node truncated at {len(data)} bytes")
        bitmap = data[1] | (data[2] << 8)
        value: Optional[bytes] = None
        if has_value:
            offset += decode_u32(data, 4)
            value = data[8:offset]
        children: List[Optional[Digest]] = []
        for index in range(16):
            if bitmap & (1 << index):
                children.append(data[offset : offset + 32])
                offset += 32
            else:
                children.append(None)
        if offset > len(data):
            raise StorageError(f"MPT branch node truncated at {len(data)} of {offset} bytes")
        return BranchNode(children=tuple(children), value=value)
    raise StorageError(f"unknown MPT node tag {tag:#x}")


def node_digest(node: MPTNode) -> Digest:
    """The node's content address."""
    return hash_bytes(encode_node(node))
