"""On-disk runs: value file + index file + Merkle file + bloom filter.

A run is immutable once built (Section 4: files stay valid until the next
level merge).  Building consumes a sorted stream of encoded compound
key-value pairs exactly once, feeding all three files and the bloom
filter concurrently — the streaming construction of Algorithms 3 and 4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.bloomfilter import BloomFilter
from repro.common.codec import clamp_key
from repro.common.errors import StorageError
from repro.common.hashing import Digest, hash_concat
from repro.common.params import ColeParams
from repro.core.indexfile import IndexFile, IndexFileBuilder
from repro.core.merklefile import MerkleFile, MerkleFileBuilder, MerkleRangeProof
from repro.core.valuefile import ValueFile, ValueFileWriter
from repro.diskio.workspace import Workspace

Entry = Tuple[int, bytes]

#: The file suffixes making up one run — the single source of truth for
#: every layer that enumerates a run's artifacts (recovery, deletion,
#: size accounting, `repro info`, snapshots).
RUN_SUFFIXES = (".val", ".idx", ".mrk", ".blm")

#: Bloom filter geometry of every new run: bits per distinct address and
#: hash functions.  Each ``.blm`` header records its own, so runs read back
#: whatever geometry they were written with.
BLOOM_BITS_PER_KEY = 10
BLOOM_HASHES = 7


def encode_pairs(entries: Iterable[Entry], key_size: int) -> List[bytes]:
    """``key.to_bytes(key_size) || value`` per entry: the encoded pairs a
    value file stores and :meth:`Run.build` takes."""
    return [key.to_bytes(key_size, "big") + value for key, value in entries]


@dataclass(frozen=True)
class RunScan:
    """Result of a provenance scan over one run (Algorithm 8 lines 13-18).

    ``entries`` are the disclosed pairs at positions ``lo..hi`` (the query
    results plus up to one boundary pair on each side, needed by the
    verifier to check completeness).
    """

    entries: List[Entry]
    lo: int
    hi: int
    proof: MerkleRangeProof


class Run:
    """One immutable sorted run of a COLE on-disk level."""

    def __init__(
        self,
        workspace: Workspace,
        name: str,
        level: int,
        num_entries: int,
        params: ColeParams,
        merkle_root: Digest,
        bloom: BloomFilter,
    ) -> None:
        self.workspace = workspace
        self.name = name
        self.level = level
        self.num_entries = num_entries
        self.params = params
        self.merkle_root = merkle_root
        self.bloom = bloom
        system = params.system
        self.value_file = ValueFile(
            workspace.open_file(
                f"{name}.val",
                category="value",
                cache_pages=params.value_cache_pages,
            ),
            num_entries,
            system,
        )
        self.index_file = IndexFile(
            workspace.open_file(f"{name}.idx", category="index"), system
        )
        self.merkle_file = MerkleFile(
            workspace.open_file(f"{name}.mrk", category="merkle"),
            num_entries,
            params.mht_fanout,
        )
        self._key_size = system.key_size
        self._key_range: Optional[Tuple[int, int]] = None  # lazy, immutable
        self._commitment: Optional[Tuple[Digest, Digest]] = None  # (filter digest, memo)

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        workspace: Workspace,
        name: str,
        level: int,
        pairs: Iterable[bytes],
        num_entries: int,
        params: ColeParams,
    ) -> "Run":
        """Build a run by streaming encoded ``pairs`` (sorted, exact
        count) once.

        A pair is ``key.to_bytes(key_size) || value`` (:func:`encode_pairs`):
        the value file stores those bytes, the Merkle leaf hashes them, the
        filter takes its address off their front and only the index
        decodes the key.  The three sinks are fed one value page of pairs
        at a time.  If the build fails — a short, long or unsorted stream,
        a sink that raises — the partial artifacts are removed before the
        error propagates, so ``name`` can be built again.
        """
        system = params.system
        key_size = system.key_size
        addr_size = system.addr_size
        pairs_per_page = system.pairs_per_page
        try:
            # cache_pages must match Run.__init__'s open of the same file —
            # the workspace's handle cache rejects mismatched re-opens.
            value_writer = ValueFileWriter(
                workspace.open_file(
                    f"{name}.val",
                    category="value",
                    cache_pages=params.value_cache_pages,
                ),
                system,
            )
            index_builder = IndexFileBuilder(
                workspace.open_file(f"{name}.idx", category="index"), system
            )
            merkle_builder = MerkleFileBuilder(
                workspace.open_file(f"{name}.mrk", category="merkle"),
                num_entries,
                params.mht_fanout,
            )
            bloom = BloomFilter.for_capacity(num_entries, BLOOM_BITS_PER_KEY, BLOOM_HASHES)

            def tee() -> Iterable[Tuple[int, int]]:
                """Feed value/Merkle/bloom, yielding (key, position) for the index."""
                stream = iter(pairs)
                from_bytes = int.from_bytes
                position = 0
                while True:
                    page = list(islice(stream, pairs_per_page))
                    if not page:
                        return
                    value_writer.add(page)
                    merkle_builder.add(page)
                    bloom.add([pair[:addr_size] for pair in page])
                    keys = [from_bytes(pair[:key_size], "big") for pair in page]
                    yield from zip(keys, range(position, position + len(page)))
                    position += len(page)

            index_builder.add_bottom_models(tee())
            count = value_writer.finish()
            if count != num_entries:
                raise StorageError(
                    f"run {name}: declared {num_entries} entries, streamed {count}"
                )
            index_builder.finish()
            merkle_root = merkle_builder.finish()
            _persist_bloom(workspace, name, bloom)
            return cls(workspace, name, level, num_entries, params, merkle_root, bloom)
        except BaseException:
            for suffix in RUN_SUFFIXES:
                workspace.remove_file(name + suffix)
            raise

    @classmethod
    def load(
        cls,
        workspace: Workspace,
        name: str,
        level: int,
        num_entries: int,
        params: ColeParams,
        merkle_root: Digest,
    ) -> "Run":
        """Re-open a run recorded in the manifest (crash recovery, §4.3)."""
        bloom = _load_bloom(workspace, name)
        return cls(workspace, name, level, num_entries, params, merkle_root, bloom)

    def delete(self) -> None:
        """Unlink all files of this run (after a committed level merge);
        views still naming it keep reading through the open handles."""
        for suffix in RUN_SUFFIXES:
            self.workspace.remove_file(self.name + suffix)

    # -- authentication -----------------------------------------------------------

    def commitment(self) -> Digest:
        """The run's entry in ``root_hash_list``: Merkle root + bloom (§4).

        Hashed once per filter digest: a finished filter hands back the
        same digest object until an add changes its bits, so the memo is
        keyed on that object's identity and can never outlive a change.
        """
        bloom_digest = self.bloom.digest()
        memo = self._commitment
        if memo is None or memo[0] is not bloom_digest:
            memo = self._commitment = (
                bloom_digest, hash_concat([self.merkle_root, bloom_digest])
            )
        return memo[1]

    # -- queries -------------------------------------------------------------------

    def floor_search(self, key: int, *, with_page: bool = False) -> Optional[tuple]:
        """Largest pair with pair key <= ``key``: learned index + page step.

        Returns ``(entry, position)`` or ``None`` if ``key`` precedes the
        whole run (any negative ``key`` does; one past the key space
        searches as the largest key); ``with_page`` appends the bytes of
        the value page the pair is on, for a scan to start from.  IO
        cost: one page per index layer (±1 on a miss) plus one or two
        value-file pages, each read once — the ``Cmodel`` of Table 1.
        """
        key = clamp_key(key, self._key_size)
        if key is None:
            return None
        encoded = key.to_bytes(self._key_size, "big")
        predicted = self.index_file.search(key, encoded)
        if predicted is None:
            return None
        found = self.value_file.floor_page(predicted, encoded)
        if found is None:
            return None
        page_id, data = found
        hit = self.value_file.floor_in_page(page_id, encoded, data)
        return (*hit, data) if with_page else hit

    def iter_from(self, key: int) -> Iterator[Entry]:
        """Pairs with pair key >= ``key``, ascending: one learned-index
        descent now, then page-sequential value-file reads — one page
        read per ``pairs_per_page`` entries, not a point lookup per key.
        The value page the descent settled on is where the scan starts
        when its first pair is there, so the seek reads it only once.
        """
        floor = self.floor_search(key, with_page=True)
        if floor is None:
            return self.value_file.scan_from(0)  # key precedes the whole run
        (floor_key, _value), position, page = floor
        if floor_key < key:  # the scan starts one past the floor ...
            position += 1
            if position % self.value_file.pairs_per_page == 0:
                page = None  # ... on the next page
        return self.value_file.scan_from(position, page)

    def key_range(self) -> Tuple[int, int]:
        """Smallest and largest compound key stored in this run.

        Two page reads on first use, then served from memory (the run
        is immutable) — the range-pruning probe of the scan path.
        """
        cached = self._key_range
        if cached is None:
            cached = (
                self.value_file.entry_at(0)[0],
                self.value_file.entry_at(self.num_entries - 1)[0],
            )
            self._key_range = cached
        return cached

    def prov_scan(self, key_low: int, key_high: int) -> RunScan:
        """Disclose the pairs covering ``[key_low, key_high]`` with proof.

        ``lo`` is the floor of ``key_low`` (or position 0), so the verifier
        sees the boundary pair below the range; ``hi`` extends one past the
        last in-range pair (or the end of the run), so the verifier sees
        the boundary pair above the range.
        """
        floor = self.floor_search(key_low)
        lo = floor[1] if floor is not None else 0
        entries: List[Entry] = []
        for entry in self.value_file.scan_from(lo):
            entries.append(entry)
            if entry[0] > key_high:
                break
        hi = lo + len(entries) - 1
        proof = self.merkle_file.prove_range(lo, hi)
        return RunScan(entries=entries, lo=lo, hi=hi, proof=proof)

    def storage_bytes(self) -> int:
        """On-disk footprint of this run's four artifacts."""
        total = 0
        for suffix in RUN_SUFFIXES:
            path = self.workspace.path_of(self.name + suffix)
            if os.path.exists(path):
                total += os.path.getsize(path)
        return total


def _persist_bloom(workspace: Workspace, name: str, bloom: BloomFilter) -> None:
    path = workspace.path_of(f"{name}.blm")
    with open(path, "wb") as handle:
        handle.write(bloom.to_bytes())


def _load_bloom(workspace: Workspace, name: str) -> BloomFilter:
    path = workspace.path_of(f"{name}.blm")
    with open(path, "rb") as handle:
        return BloomFilter.from_bytes(handle.read())
