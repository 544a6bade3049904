"""The LIPP baseline: an updatable learned index with node persistence.

LIPP [54] places entries in model-predicted slots of gapped arrays and
resolves collisions by creating child nodes — lookups never need a local
search.  The paper applies it to blockchain storage *without* the
column-based design by persisting every modified node at each block, the
same copy-on-write discipline as the MPT; because a learned node's
serialization covers its whole gapped array (fanout comparable to the
data size), this blows storage up by 5x-31x versus MPT, which is exactly
the behaviour this reproduction preserves.

Simplifications versus full LIPP (documented in DESIGN.md): nodes are
built with the FMCD-style linear interpolation model but are not
rebalanced by the conflict-counter SMO, and the in-memory layout is a
plain Python list.  Neither affects the storage-persistence behaviour
the baseline exists to demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chain.backend import StorageBackend
from repro.common.codec import encode_u32, encode_u64
from repro.common.errors import StorageError
from repro.common.hashing import Digest, EMPTY_DIGEST, hash_bytes
from repro.diskio.iostats import IOStats
from repro.kvstore import LSMStore

_EMPTY = 0
_ENTRY = 1
_CHILD = 2

_MIN_NODE_SLOTS = 8
_GAP_FACTOR = 2


class _Node:
    """One LIPP node: a linear model over a gapped slot array."""

    __slots__ = ("kmin", "kmax", "slots", "dirty", "digest", "conflicts")

    def __init__(self, kmin: int, kmax: int, num_slots: int) -> None:
        self.kmin = kmin
        self.kmax = kmax
        # Each slot: None | ("e", key, value) | ("c", _Node)
        self.slots: List[Optional[Tuple]] = [None] * num_slots
        self.dirty = True
        self.digest: Optional[Digest] = None
        self.conflicts = 0  # child creations since the last rebuild (SMO)

    def predict(self, key: int) -> int:
        if self.kmax == self.kmin:
            return 0
        position = (key - self.kmin) * (len(self.slots) - 1) // (self.kmax - self.kmin)
        return min(max(position, 0), len(self.slots) - 1)

    def collect_entries(self) -> List[Tuple[int, bytes]]:
        """All entries in the subtree (input to a rebuild)."""
        entries: List[Tuple[int, bytes]] = []
        for slot in self.slots:
            if slot is None:
                continue
            if slot[0] == "e":
                entries.append((slot[1], slot[2]))
            else:
                entries.extend(slot[1].collect_entries())
        return entries


@dataclass
class LIPPProvResult:
    """Per-block provenance answer (mirrors the MPT baseline's shape)."""

    addr: bytes
    versions: List[Tuple[int, bytes]]
    proof_bytes: int = 0

    def proof_size_bytes(self) -> int:
        return self.proof_bytes


class LIPPStorage(StorageBackend):
    """Blockchain storage indexed by a persisted LIPP learned index."""

    def __init__(
        self,
        directory: str,
        stats: Optional[IOStats] = None,
        memtable_capacity: int = 4096,
        page_size: int = 4096,
    ) -> None:
        self.store = LSMStore(
            directory,
            page_size=page_size,
            memtable_capacity=memtable_capacity,
            stats=stats,
            name="lipp",
        )
        self.root: Optional[_Node] = None
        self.roots: Dict[int, Optional[Digest]] = {}
        self.current_blk = 0
        self.nodes_persisted = 0
        self.node_bytes_persisted = 0

    # -- block lifecycle ------------------------------------------------------------

    def begin_block(self, height: int) -> None:
        if height < self.current_blk:
            raise StorageError("block heights must be non-decreasing")
        self.current_blk = height

    def commit_block(self) -> Digest:
        """Persist every node modified in this block (copy-on-write)."""
        digest = self._persist(self.root) if self.root is not None else None
        self.roots[self.current_blk] = digest
        self.store.put(b"r" + encode_u64(self.current_blk), digest or b"")
        return digest if digest is not None else EMPTY_DIGEST

    def _persist(self, node: _Node) -> Digest:
        if not node.dirty and node.digest is not None:
            return node.digest
        parts: List[bytes] = [
            node.kmin.to_bytes(32, "big"),
            node.kmax.to_bytes(32, "big"),
            encode_u32(len(node.slots)),
        ]
        for slot in node.slots:
            if slot is None:
                parts.append(bytes([_EMPTY]))
            elif slot[0] == "e":
                _tag, key, value = slot
                parts.append(
                    bytes([_ENTRY]) + key.to_bytes(32, "big") + encode_u32(len(value)) + value
                )
            else:
                child_digest = self._persist(slot[1])
                parts.append(bytes([_CHILD]) + child_digest)
        data = b"".join(parts)
        digest = hash_bytes(data)
        self._put_node_bytes(digest, data)
        self.nodes_persisted += 1
        self.node_bytes_persisted += len(data)
        node.dirty = False
        node.digest = digest
        return digest

    # Learned nodes routinely exceed a disk page (their gapped arrays have
    # fanout comparable to the data size — the very property that makes
    # persisting them expensive), so node payloads are chunked across KV
    # entries.

    _CHUNK = 3200

    def _put_node_bytes(self, digest: Digest, data: bytes) -> None:
        chunks = [data[i : i + self._CHUNK] for i in range(0, len(data), self._CHUNK)]
        self.store.put(b"n" + digest, encode_u32(len(chunks)))
        for index, chunk in enumerate(chunks):
            self.store.put(b"c" + digest + encode_u32(index), chunk)

    def _get_node_bytes(self, digest: Digest) -> Optional[bytes]:
        header = self.store.get(b"n" + digest)
        if header is None:
            return None
        count = int.from_bytes(header[:4], "big")
        parts = []
        for index in range(count):
            chunk = self.store.get(b"c" + digest + encode_u32(index))
            if chunk is None:
                return None
            parts.append(chunk)
        return b"".join(parts)

    # -- state access -----------------------------------------------------------------

    def put(self, addr: bytes, value: bytes) -> None:
        key = int.from_bytes(addr, "big")
        if self.root is None:
            self.root = _Node(key, key + 1, _MIN_NODE_SLOTS)
        self._insert(self.root, key, value)

    def _insert(self, node: _Node, key: int, value: bytes) -> None:
        node.dirty = True
        slot_index = node.predict(key)
        slot = node.slots[slot_index]
        if slot is None:
            node.slots[slot_index] = ("e", key, value)
            return
        if slot[0] == "e":
            _tag, existing_key, existing_value = slot
            if existing_key == key:
                node.slots[slot_index] = ("e", key, value)
                return
            child = _build_node(
                [(existing_key, existing_value), (key, value)]
            )
            node.slots[slot_index] = ("c", child)
            node.conflicts += 1
            if node.conflicts * 4 > len(node.slots):
                self._rebuild(node)
            return
        self._insert(slot[1], key, value)

    def _rebuild(self, node: _Node) -> None:
        """LIPP's structural-modification operation, simplified: re-learn
        the node over all entries of its subtree with a wider gapped
        array.  This is what makes learned nodes large (fanout comparable
        to the data they cover) — the root of the paper's persistence
        blow-up."""
        entries = node.collect_entries()
        rebuilt = _build_node(entries)
        node.kmin = rebuilt.kmin
        node.kmax = rebuilt.kmax
        node.slots = rebuilt.slots
        node.conflicts = 0
        node.dirty = True

    def get(self, addr: bytes) -> Optional[bytes]:
        key = int.from_bytes(addr, "big")
        node = self.root
        while node is not None:
            slot = node.slots[node.predict(key)]
            if slot is None:
                return None
            if slot[0] == "e":
                return slot[2] if slot[1] == key else None
            node = slot[1]
        return None

    # -- provenance ----------------------------------------------------------------------

    def prov_query(self, addr: bytes, blk_low: int, blk_high: int) -> LIPPProvResult:
        """Per-block traversal of the persisted node graph (like MPT)."""
        key = int.from_bytes(addr, "big")
        versions: List[Tuple[int, bytes]] = []
        proof_bytes = 0
        previous: Optional[bytes] = None
        for blk in range(blk_low, blk_high + 1):
            digest = self._root_at(blk)
            if digest is None:
                continue
            value, path_bytes = self._get_persisted(digest, key)
            proof_bytes += path_bytes
            if value is not None and value != previous:
                versions.append((blk, value))
            previous = value
        return LIPPProvResult(addr=addr, versions=versions, proof_bytes=proof_bytes)

    def _root_at(self, blk: int) -> Optional[Digest]:
        candidates = [b for b in self.roots if b <= blk]
        if not candidates:
            return None
        return self.roots[max(candidates)]

    def _get_persisted(self, digest: Digest, key: int) -> Tuple[Optional[bytes], int]:
        """Traverse persisted nodes; returns (value, bytes of path nodes)."""
        path_bytes = 0
        while True:
            data = self._get_node_bytes(digest)
            if data is None:
                return None, path_bytes
            path_bytes += len(data)
            kmin = int.from_bytes(data[0:32], "big")
            kmax = int.from_bytes(data[32:64], "big")
            num_slots = int.from_bytes(data[64:68], "big")
            # Walk the serialized slots to the predicted one.
            if kmax == kmin:
                target = 0
            else:
                target = min(
                    max((key - kmin) * (num_slots - 1) // (kmax - kmin), 0),
                    num_slots - 1,
                )
            offset = 68
            for index in range(num_slots):
                tag = data[offset]
                offset += 1
                if tag == _EMPTY:
                    entry = None
                    size = 0
                elif tag == _ENTRY:
                    entry_key = int.from_bytes(data[offset : offset + 32], "big")
                    vlen = int.from_bytes(data[offset + 32 : offset + 36], "big")
                    value = data[offset + 36 : offset + 36 + vlen]
                    size = 36 + vlen
                    entry = ("e", entry_key, value)
                else:
                    entry = ("c", data[offset : offset + 32])
                    size = 32
                if index == target:
                    if entry is None:
                        return None, path_bytes
                    if entry[0] == "e":
                        return (entry[2] if entry[1] == key else None), path_bytes
                    digest = entry[1]
                    break
                offset += size
            else:
                return None, path_bytes

    # -- accounting / lifecycle --------------------------------------------------------------

    def storage_bytes(self) -> int:
        self.store.flush()  # all data must reach disk before it is counted
        return self.store.storage_bytes()

    def close(self) -> None:
        self.store.close()


def _build_node(entries: List[Tuple[int, bytes]]) -> _Node:
    """Build a fresh node over sorted or unsorted ``entries``."""
    entries = sorted(entries)
    kmin, kmax = entries[0][0], entries[-1][0]
    num_slots = max(_MIN_NODE_SLOTS, _GAP_FACTOR * len(entries))
    node = _Node(kmin, kmax, num_slots)
    for key, value in entries:
        slot_index = node.predict(key)
        slot = node.slots[slot_index]
        if slot is None:
            node.slots[slot_index] = ("e", key, value)
        elif slot[0] == "e":
            child = _build_node([(slot[1], slot[2]), (key, value)])
            node.slots[slot_index] = ("c", child)
        else:
            _insert_plain(slot[1], key, value)
    return node


def _insert_plain(node: _Node, key: int, value: bytes) -> None:
    """Insert without SMO bookkeeping (used while building fresh nodes)."""
    slot_index = node.predict(key)
    slot = node.slots[slot_index]
    if slot is None:
        node.slots[slot_index] = ("e", key, value)
    elif slot[0] == "e":
        if slot[1] == key:
            node.slots[slot_index] = ("e", key, value)
            return
        node.slots[slot_index] = ("c", _build_node([(slot[1], slot[2]), (key, value)]))
    else:
        _insert_plain(slot[1], key, value)
