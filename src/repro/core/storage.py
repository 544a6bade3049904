"""COLE, the storage engine (Algorithms 1, 5, 6 and 8).

One :class:`Cole` instance owns a workspace directory.  There is one
write path — the commit checkpoint walk, :meth:`Cole._cascade`: each full
level lands the run build started at its previous checkpoint, switches
its writing/merging groups and starts the next build — and
``params.async_merge`` decides only when a build lands:

* COLE (Algorithm 1): the build runs inline and lands before the walk
  moves on, so one commit can pay for the whole recursive merge — the
  write-stall / long-tail-latency behaviour Figure 12 measures;
* COLE* (Algorithm 5): the build runs on a thread pool and lands at the
  level's next checkpoint.  Checkpoints are a function of the put stream,
  never of merge timing, so ``Hstate`` is identical across COLE* nodes
  (the soundness argument of Section 5).  It is *not* the ``Hstate`` of
  a COLE node fed the same puts: COLE* commits every run one checkpoint
  later and hashes a second L0 tree, so the two modes' roots differ at
  every block although every read answers the same.

Durability follows Section 4.3: committed runs are named by an atomically
replaced manifest; on recovery, unnamed files are deleted, the in-memory
level is rebuilt by replaying puts after the recorded checkpoint, and
aborted merges restart — in either mode, so a store may be reopened
under the other one.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.bloomfilter import hash_item
from repro.common.debuglock import maybe_debug_lock
from repro.common.errors import StorageError
from repro.common.gate import CommitGate
from repro.common.hashing import Digest, hash_concat
from repro.common.params import ColeParams
from repro.core.compaction import make_policy
from repro.core.compound import MAX_BLK, check_blk, compound_key
from repro.core.cursor import ReadSource, ScanTriple, scan_sources
from repro.core.disklevel import DiskGroup, DiskLevel, PendingMerge
from repro.core.manifest import Manifest, RunRecord, load_manifest, save_manifest
from repro.core.memlevel import MemGroup
from repro.core.merge import MergeScheduler, merge_entry_streams
from repro.core.proofs import (
    MemProofItem,
    ProofItem,
    ProvenanceProof,
    ProvenanceResult,
    RunNegativeItem,
    RunProofItem,
    StubItem,
)
from repro.core.run import RUN_SUFFIXES, Run, encode_pairs
from repro.diskio.iostats import IOStats
from repro.diskio.workspace import Workspace

#: Name of the advisory workspace lock file (held via flock by the CLI's
#: serve/snapshot commands).  Defined here — next to the recovery code
#: that must *not* delete it — so the two layers cannot drift apart.
WORKSPACE_LOCK_NAME = "LOCK"

#: Answer of a ``wait=False`` point read that found L0 mid-insert.
WOULD_BLOCK = object()
_NO_LOCK = nullcontext()  # guards the probe of a write-once run


class StoreView(NamedTuple):
    """What a reader holds instead of the gate: every sorted source the
    engine had at one commit checkpoint (``Cole._publish_view``).

    Nothing a view names is mutated in place, except that the writing L0
    group takes inserts under the engine's mem lock until the next
    checkpoint: runs are write-once and their descriptors close with the
    last view naming them; checkpoints and rewind allocate fresh groups.
    """

    epoch: int
    #: Algorithm 6's search order (newest first; ``sources[0]`` is
    #: ``mem:w``): what point lookups, provenance and scan cursors walk.
    sources: Tuple[ReadSource, ...]
    #: The same sources in ``root_hash_list`` order (runs oldest first).
    roots: Tuple[ReadSource, ...]


class Cole:
    """The column-based learned storage engine."""

    def __init__(
        self,
        directory: str,
        params: Optional[ColeParams] = None,
        stats: Optional[IOStats] = None,
    ) -> None:
        """Open (creating or recovering) a COLE instance in ``directory``."""
        self.params = params if params is not None else ColeParams()
        system = self.params.system
        self.workspace = Workspace(directory, system.page_size, stats)
        self.stats = self.workspace.stats
        self.mem_writing = self._new_mem_group()
        self.mem_merging = self._new_mem_group()
        self.mem_pending: Optional[PendingMerge] = None
        self.scheduler = MergeScheduler(inline=not self.params.async_merge)
        # Scans, provenance and root queries hold this shared; puts,
        # commit checkpoints, and rewind hold it exclusive.  Point reads
        # hold a view instead, and the mem lock around an L0 probe — as
        # put / put_many do around their inserts.
        self.gate = CommitGate("cole-gate")
        self._mem_lock = maybe_debug_lock("cole-mem")
        self.levels: List[DiskLevel] = []  # levels[i] is on-disk level i+1
        self._view = StoreView(0, (), ())
        self.current_blk = 0
        self.puts_total = 0
        self._run_seq = 0
        self._checkpoint_puts = 0
        self._checkpoint_blk = -1
        # Cascade trigger policy (repro.core.compaction) and the
        # cumulative write-amplification counters it is judged by:
        # bytes_flushed counts L0 flush output (user bytes entering
        # disk), bytes_rewritten counts level-merge output (the bytes
        # the policy chose to rewrite).  Both persist in the manifest.
        self.compaction = make_policy(self.params.compaction)
        self.bytes_flushed = 0
        self.bytes_rewritten = 0
        self.level_bytes_rewritten: Dict[int, int] = {}
        self._recover()

    # =========================================================================
    # block lifecycle
    # =========================================================================

    def begin_block(self, height: int) -> None:
        """Start executing transactions of block ``height``."""
        with self.gate.exclusive():
            if height < self.current_blk:
                raise StorageError(
                    "block heights must be non-decreasing (no forks, §4.3)"
                )
            self.current_blk = height

    def commit_block(self, force_cascade: Optional[bool] = None) -> Digest:
        """Finalize the current block and return ``Hstate`` (Algorithm 1
        line 13 / Algorithm 5 line 22).

        Capacity checks run here, at the block boundary, rather than
        inside ``put``: this keeps every ``<addr, blk>`` compound key
        globally unique (a block's updates can never straddle a flush) and
        makes crash-recovery replay block-aligned.  L0 may transiently
        exceed ``B`` by one block's worth of updates; see DESIGN.md.

        ``force_cascade`` overrides the capacity check (both ways); the
        sharded engine uses it to coordinate cascades across shards so
        their commit IO overlaps.  Passing a value derived from the put
        stream keeps ``Hstate`` deterministic.
        """
        cascade = self.needs_cascade() if force_cascade is None else force_cascade
        with self.gate.exclusive():
            if cascade:
                self._cascade()
            return self._root_digest()

    def needs_cascade(self) -> bool:
        """True when the next commit will flush L0 (capacity reached).

        Shared with the sharded engine, whose commit fan-out parallelizes
        exactly the commits this predicate marks as heavy.
        """
        return len(self._view.sources[0].source) >= self.params.mem_capacity

    # =========================================================================
    # write path
    # =========================================================================

    def put(self, addr: bytes, value: bytes) -> None:
        """Insert a state update for the current block (Put of Section 2)."""
        self.put_many(((addr, value),))

    def put_many(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Insert a write set for the current block in one dispatch.

        Same compound keys and overwrite-within-a-block semantics as one
        ``put`` per pair; the block height is validated once per batch.
        """
        addr_size = self.params.system.addr_size
        blk = self.current_blk
        check_blk(blk)
        count = 0
        with self.gate.exclusive(), self._mem_lock:
            insert = self.mem_writing.insert
            try:
                for addr, value in items:
                    if len(addr) != addr_size:
                        raise StorageError(f"address must be {addr_size} bytes")
                    insert(compound_key(addr, blk), value)
                    count += 1
            finally:
                self.puts_total += count

    # -- the commit checkpoint walk (Algorithms 1 and 5) -------------------------

    def _cascade(self) -> None:
        """One walk down the levels: each full level lands the build
        started at its previous checkpoint, switches groups and starts
        the next build.  COLE (Algorithm 1) lands that build before the
        walk moves on, COLE* (Algorithm 5) at the level's next checkpoint
        — the one thing ``async_merge`` decides here."""
        land_now = not self.params.async_merge
        moved = self._checkpoint_mem()
        if land_now and self._land_flush():
            # Publish the flush now (it is consistent on its own): that drops
            # the drained tree before the merges below, the memory peak.
            self._publish_view()
        obsolete: List[Run] = []
        index = 0
        while index < len(self.levels) and self.compaction.should_merge(
            self.levels[index].writing, index + 1, self.params
        ):
            obsolete += self._checkpoint_level(index)
            if land_now:
                obsolete += self._land_merge(self.levels[index])
            index += 1
        if not moved and index == 0:
            return  # forced cascade, empty L0, nothing in flight: a no-op
        self._save_manifest()
        self._publish_view()
        # Only now are the merged-away runs unreferenced by the manifest;
        # deleting them earlier leaves a crash window where recovery loads
        # a manifest naming files that no longer exist (Section 4.3).
        for run in obsolete:
            run.delete()

    def _checkpoint_mem(self) -> bool:
        """The L0 commit checkpoint (Algorithm 5, i = 0); True when it
        landed or started a flush."""
        landed = self._land_flush()
        entries = self.mem_writing.drain()
        if not entries:  # forced cascade on an empty L0: nothing to flush
            return landed
        self.mem_pending = self._start_flush(entries, self.puts_total, self.current_blk)
        # The full tree becomes the merging group and a fresh one takes
        # the writes (never clear()+swap: views still name the old pair).
        self.mem_merging = self.mem_writing
        self.mem_writing = self._new_mem_group()
        return True

    def _start_flush(self, entries, checkpoint_puts: int, checkpoint_blk: int) -> PendingMerge:
        """Build the level-1 run of an L0 group's drained ``entries``; the
        two checkpoint values are what the manifest records once it lands."""
        name = self._next_run_name(1)
        key_size = self.params.system.key_size
        return self.scheduler.spawn(
            "flush",
            name,
            lambda: Run.build(
                self.workspace, name, 1, encode_pairs(entries, key_size), len(entries),
                self.params,
            ),
            level=1,
            checkpoint_puts=checkpoint_puts,
            checkpoint_blk=checkpoint_blk,
        )

    def _land_flush(self) -> bool:
        """Commit the pending L0 flush, if there is one: its run joins
        level 1 and replaces the merging tree it was built from."""
        pending = self.mem_pending
        if pending is None:
            return False
        run = pending.wait()
        self._ensure_level(1).writing.add(run)
        self.bytes_flushed += run.storage_bytes()
        self._checkpoint_puts = pending.checkpoint_puts
        self._checkpoint_blk = pending.checkpoint_blk
        self.mem_pending = None
        self.mem_merging = self._new_mem_group()
        return True

    def _checkpoint_level(self, index: int) -> List[Run]:
        """The commit checkpoint of on-disk level ``index + 1``
        (Algorithm 5 lines 9-19).

        Returns the merged-away runs; the caller deletes their files
        after the manifest no longer names them.
        """
        level = self.levels[index]
        obsolete = self._land_merge(level)
        # Started before the switch: an inline build that fails raises
        # here, with every group where the last manifest has it.
        pending = self._start_merge(index, level.writing)
        level.switch_groups()
        level.pending = pending
        return obsolete

    def _start_merge(self, index: int, group: DiskGroup) -> PendingMerge:
        """Merge ``group`` — level ``index + 1``'s merging group, or the
        writing group about to become it — into one run of the next level."""
        sources = self.compaction.merge_sources(group)
        target = self.compaction.merge_target(index + 1)
        total = sum(source.num_entries for source in sources)
        name = self._next_run_name(target)

        def build() -> Run:
            merged = merge_entry_streams(
                [source.value_file.iter_pairs() for source in sources],
                self.params.system.key_size,
            )
            return Run.build(self.workspace, name, target, merged, total, self.params)

        return self.scheduler.spawn("merge", name, build, level=target)

    def _land_merge(self, level: DiskLevel) -> List[Run]:
        """Commit ``level``'s pending merge, if there is one: the output
        joins its target level and the merging group it replaces is
        retired in the same step — a merging group leaves no other way,
        or its runs would shadow newer data merged below them."""
        pending = level.pending
        if pending is None:
            return []
        run = pending.wait()
        self._ensure_level(run.level).writing.add(run)
        # Counted here, not when the build finishes, so the counters stay
        # deterministic across merge timing and crash/restart: an aborted
        # merge's bytes are never counted, its restart's exactly once.
        written = run.storage_bytes()
        self.bytes_rewritten += written
        self.level_bytes_rewritten[run.level] = (
            self.level_bytes_rewritten.get(run.level, 0) + written
        )
        level.pending = None
        return level.merging.take_all()

    def _restart_merges(self) -> None:
        """Give every non-empty merging group its merge back: recovery of
        an aborted merge (Section 4.3) and rewind, in either mode."""
        for index, level in enumerate(self.levels):
            if level.merging.runs:
                level.pending = self._start_merge(index, level.merging)

    # -- shared write helpers -------------------------------------------------------

    def _next_run_name(self, level: int) -> str:
        name = f"L{level}_{self._run_seq:08d}"
        self._run_seq += 1
        return name

    def _new_mem_group(self) -> MemGroup:
        return MemGroup(self.params.system.key_size)

    def _publish_view(self) -> None:
        """Swap in the view of the current structure: the last step of
        every structural mutation (gate held exclusive)."""
        mems = [ReadSource.mem("mem:w", self.mem_writing)]
        if self.params.async_merge:
            mems.append(ReadSource.mem("mem:m", self.mem_merging))
        sources, roots = list(mems), list(mems)
        for level in self.levels:
            for role, group in (("w", level.writing), ("m", level.merging)):
                runs = [
                    ReadSource.run(f"run:{run.name}:{role}", run) for run in group.runs
                ]
                roots += runs
                sources += reversed(runs)  # search order is newest first
        self._view = StoreView(self._view.epoch + 1, tuple(sources), tuple(roots))

    def _ensure_level(self, paper_level: int) -> DiskLevel:
        while len(self.levels) < paper_level:
            self.levels.append(DiskLevel(len(self.levels) + 1))
        return self.levels[paper_level - 1]

    def wait_for_merges(self) -> None:
        """Join every background merge (benchmark teardown, clean close).

        The finished runs stay uncommitted until their natural checkpoint,
        preserving ``Hstate`` determinism.
        """
        with self.gate.shared():
            pending = self._pending_merges()
        for merge in pending:
            merge.wait()

    def _pending_merges(self) -> List[PendingMerge]:
        merges = [self.mem_pending] + [level.pending for level in self.levels]
        return [merge for merge in merges if merge is not None]

    # =========================================================================
    # root digest (Hstate)
    # =========================================================================

    def root_hash_list(self) -> List[Tuple[str, Digest]]:
        """The ordered (label, digest) list that ``Hstate`` hashes (§3.2)."""
        with self.gate.shared():
            return self._root_hash_list()

    def _root_hash_list(self) -> List[Tuple[str, Digest]]:
        return [(source.label, source.digest()) for source in self._view.roots]

    def root_digest(self) -> Digest:
        """``Hstate``: the digest over ``root_hash_list``."""
        with self.gate.shared():
            return self._root_digest()

    def _root_digest(self) -> Digest:
        return hash_concat([digest for _label, digest in self._root_hash_list()])

    # =========================================================================
    # read path
    # =========================================================================

    def get(self, addr: bytes, wait: bool = True) -> Optional[bytes]:
        """Latest value of ``addr`` or ``None`` (Algorithm 6): a walk of
        the published view, no gate.  With ``wait=False`` the call never
        blocks — it answers :data:`WOULD_BLOCK` when L0 is mid-insert
        (same for ``get_at``)."""
        return self._lookup(self._view, compound_key(addr, MAX_BLK), addr, wait)

    def get_at(self, addr: bytes, blk: int, wait: bool = True) -> Optional[bytes]:
        """Value of ``addr`` as of block ``blk`` (historical point lookup)."""
        check_blk(blk)
        return self._lookup(self._view, compound_key(addr, blk), addr, wait)

    def get_many(self, addrs: List[bytes]) -> List[Optional[bytes]]:
        """Batched :meth:`get`: latest values, positionally matched.

        One view and one walk of its sources serve the whole batch; the
        writing L0 group — the only source still taking inserts — is
        probed for every address under one mem-lock hold, so the batch
        describes one instant (``put_many`` inserts under the same lock).
        Within each source the still-unresolved addresses are probed
        (:meth:`ReadSource.probe`, as by ``get``) in ascending key order,
        so a run's index and value files are touched sequentially rather
        than in request order.  An address resolved by a fresher source
        is never probed again in older ones (Algorithm 6's first-hit-wins,
        batch-wide).
        """
        results: List[Optional[bytes]] = [None] * len(addrs)
        # Duplicates in one batch resolve to the same snapshot answer;
        # probe each distinct address once and fan the value back out.
        pending: Dict[bytes, List[int]] = {}
        for index, addr in enumerate(addrs):
            pending.setdefault(addr, []).append(index)
        hashed = {addr: hash_item(addr) for addr in pending}  # once per batch
        for source in self._view.sources:
            if not pending:
                break
            with self._mem_lock if source.kind == "mem" else _NO_LOCK:
                for addr in sorted(pending):
                    value = source.probe(compound_key(addr, MAX_BLK), hashed[addr])
                    if value is not None:
                        for index in pending.pop(addr):
                            results[index] = value
        return results

    def _lookup(self, view: StoreView, key: int, addr: bytes, wait: bool):
        """Probe ``view``'s sources in freshness order (Algorithm 6): the
        newest entry for ``addr`` with compound key <= ``key``.  Runs are
        write-once and probed lock-free; an L0 group is probed under the
        mem lock — with ``wait=False`` only if it is free:
        :data:`WOULD_BLOCK` is the answer when an insert holds it."""
        hashed = hash_item(addr)  # once, for every run's filter
        lock = self._mem_lock
        for source in view.sources:
            if source.kind == "mem":
                if not lock.acquire(wait):
                    return WOULD_BLOCK
                try:
                    value = source.probe(key, hashed)
                finally:
                    lock.release()
            else:
                value = source.probe(key, hashed)
            if value is not None:
                return value
        return None

    def _read_sources(self) -> Tuple[ReadSource, ...]:
        """The current view's sources (Algorithm 6's search order)."""
        return self._view.sources

    # -- range scans (cursor layer) -----------------------------------------------

    def scan(
        self,
        addr_low: bytes,
        addr_high: bytes,
        *,
        at_blk: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[ScanTriple]:
        """Key-ordered range scan: the live version of every address in
        ``[addr_low, addr_high]`` (inclusive), ascending.

        Returns ``(addr, blk, value)`` triples — ``blk`` is the height
        the returned version was written at.  ``at_blk`` scans the
        historical state as of that block (default: latest); ``limit``
        caps the number of addresses returned, which with
        :func:`repro.core.cursor.addr_successor` over the last returned
        address is the paging primitive the serving layer's
        continuation protocol builds on.  Runs under the gate shared
        for the whole scan, like every other query.
        """
        with self.gate.shared():
            return scan_sources(
                self._read_sources(),
                addr_low,
                addr_high,
                at_blk=at_blk,
                limit=limit,
                addr_size=self._addr_size(),
            )

    # -- provenance queries (Algorithm 8) ----------------------------------------

    def prov_query(self, addr: bytes, blk_low: int, blk_high: int) -> ProvenanceResult:
        """Historical values of ``addr`` in ``[blk_low, blk_high]`` + proof."""
        if blk_low > blk_high:
            raise StorageError("empty block range")
        with self.gate.shared():
            return self._prov_query(addr, blk_low, blk_high)

    def prov_query_anchored(
        self, addr: bytes, blk_low: int, blk_high: int
    ) -> Tuple[ProvenanceResult, Digest]:
        """:meth:`prov_query` plus the ``Hstate`` the proof verifies
        against, both read under one gate hold so no commit checkpoint
        can slide between proof and anchor (the serving layer's PROV op
        hands both to remote verifiers)."""
        if blk_low > blk_high:
            raise StorageError("empty block range")
        with self.gate.shared():
            return self._prov_query(addr, blk_low, blk_high), self._root_digest()

    def _prov_query(self, addr: bytes, blk_low: int, blk_high: int) -> ProvenanceResult:
        addr_int = int.from_bytes(addr, "big")
        key_low = addr_int * 2**64 + blk_low - 1  # <addr, blk_low - 1>
        key_high = addr_int * 2**64 + min(blk_high + 1, MAX_BLK)
        hashed = hash_item(addr)

        found: Dict[int, bytes] = {}  # blk -> value, for our address
        items_by_label: Dict[str, ProofItem] = {}
        early_stop = False

        def note_entries(entries: List[Tuple[int, bytes]]) -> bool:
            """Record disclosed versions of addr; True if one predates blk_low."""
            saw_older = False
            for entry_key, value in entries:
                if entry_key >> 64 != addr_int:
                    continue
                blk = entry_key & MAX_BLK
                if blk > blk_high:
                    continue
                found.setdefault(blk, value)
                if blk < blk_low:
                    saw_older = True
            return saw_older

        # One pass over the unified read-path enumeration — the same
        # freshness order gets and scans traverse (Algorithm 8 rides
        # Algorithm 6's search order).
        for source in self._read_sources():
            if early_stop:
                break
            if source.kind == "mem":
                entries, proof = source.source.range_proof(key_low, key_high)
                items_by_label[source.label] = MemProofItem(proof=proof)
                if note_entries(entries):
                    early_stop = True
                continue
            run = source.source
            if hashed not in run.bloom:
                items_by_label[source.label] = RunNegativeItem(
                    bloom_bytes=run.bloom.to_bytes(), merkle_root=run.merkle_root
                )
                continue
            scan = run.prov_scan(key_low, key_high)
            items_by_label[source.label] = RunProofItem(
                entries=scan.entries,
                lo=scan.lo,
                hi=scan.hi,
                num_entries=run.num_entries,
                merkle_proof=scan.proof,
                bloom_digest=run.bloom.digest(),
            )
            if note_entries(scan.entries):
                early_stop = True

        # In root_hash_list order; only an unsearched source's digest is
        # needed, as its stub.
        items: List[ProofItem] = []
        for source in self._view.roots:
            item = items_by_label.get(source.label)
            items.append(item if item is not None else StubItem(digest=source.digest()))

        proof = ProvenanceProof(
            addr=addr, blk_low=blk_low, blk_high=blk_high, items=items
        )
        versions = sorted(
            (blk, value) for blk, value in found.items() if blk >= blk_low
        )
        older = [(blk, value) for blk, value in found.items() if blk < blk_low]
        boundary = max(older) if older else None
        return ProvenanceResult(versions=versions, boundary_version=boundary, proof=proof)

    # =========================================================================
    # accounting / lifecycle
    # =========================================================================

    def storage_bytes(self) -> int:
        """Total on-disk footprint (the storage series of Figures 9-10)."""
        with self.gate.shared():
            return self.workspace.storage_bytes()

    def num_disk_levels(self) -> int:
        """Deepest on-disk level holding a run (``d_COLE`` of Table 1)."""
        runs = (s.source for s in self._view.sources if s.kind == "run")
        return max((run.level for run in runs), default=0)

    def compaction_stats(self) -> dict:
        """Write-amplification accounting of the compaction policy.

        ``write_amp`` is cumulative merge output over cumulative flush
        output — the figure the leveling/tiering trade-off moves.  The
        per-level rows report the live run layout (count, entries,
        on-disk bytes) plus the merge bytes ever written *onto* that
        level, so `repro query compaction` can show where rewriting
        concentrates.
        """
        with self.gate.shared():
            return self._compaction_stats()

    def _compaction_stats(self) -> dict:
        per_level: Dict[int, dict] = {}
        for level in self.levels:
            runs = level.all_runs()
            per_level[level.level] = {
                "runs": len(runs),
                "entries": sum(run.num_entries for run in runs),
                "bytes": sum(run.storage_bytes() for run in runs),
                "bytes_rewritten": self.level_bytes_rewritten.get(level.level, 0),
            }
        flushed = self.bytes_flushed
        rewritten = self.bytes_rewritten
        return {
            "policy": self.params.compaction,
            "bytes_flushed": flushed,
            "bytes_rewritten": rewritten,
            "write_amp": round(rewritten / flushed, 4) if flushed else 0.0,
            "levels": per_level,
        }

    def rewind_to(self, target_blk: int) -> int:
        """Discard every version newer than ``target_blk`` (fork support,
        the paper's future-work extension — see repro.core.rewind)."""
        from repro.core.rewind import rewind_to

        with self.gate.exclusive():
            dropped = rewind_to(self, target_blk)
            self._publish_view()
            return dropped

    def close(self) -> None:
        """Join merges, stop the merge workers, and close all file handles.

        Holds the gate exclusive so in-flight queries finish before their
        file handles disappear from under them.
        """
        self.wait_for_merges()
        self.scheduler.close()
        with self.gate.exclusive():
            self.workspace.close()

    # =========================================================================
    # durability (Section 4.3)
    # =========================================================================

    def _save_manifest(self) -> None:
        manifest = Manifest(
            checkpoint_blk=self._checkpoint_blk,
            checkpoint_puts=self._checkpoint_puts,
            next_run_seq=self._run_seq,
            async_merge=self.params.async_merge,
            compaction=self.params.compaction,
            bytes_flushed=self.bytes_flushed,
            bytes_rewritten=self.bytes_rewritten,
            level_bytes_rewritten=dict(self.level_bytes_rewritten),
        )
        manifest.levels = {}
        for level in self.levels:
            groups: Dict[str, List[RunRecord]] = {"writing": [], "merging": []}
            for role, group in (("writing", level.writing), ("merging", level.merging)):
                for run in group.runs:
                    groups[role].append(
                        RunRecord(
                            name=run.name,
                            level=run.level,
                            num_entries=run.num_entries,
                            merkle_root_hex=run.merkle_root.hex(),
                        )
                    )
            manifest.levels[level.level] = groups
        save_manifest(self.workspace.root, manifest)

    def _recover(self) -> None:
        manifest = load_manifest(self.workspace.root)
        # A committed store's run layout is policy-specific; reopening
        # under a different policy would silently change where the next
        # cascade merges and diverge Hstate across restarts.  Manifests
        # predating the policy field were all written by leveling.
        recorded = manifest.compaction
        if not recorded and manifest.next_run_seq > 0:
            recorded = "leveling"
        if recorded and recorded != self.params.compaction:
            raise StorageError(
                f"workspace was committed with compaction={recorded!r}; "
                f"reopen with the same policy (got {self.params.compaction!r})"
            )
        self.bytes_flushed = manifest.bytes_flushed
        self.bytes_rewritten = manifest.bytes_rewritten
        self.level_bytes_rewritten = dict(manifest.level_bytes_rewritten)
        # The lock is the CLI's advisory workspace guard: not engine
        # state, but deleting it mid-hold would let a second process
        # relock a fresh inode and defeat it.
        known = {"MANIFEST.json", WORKSPACE_LOCK_NAME}
        for paper_level, groups in sorted(manifest.levels.items()):
            level = self._ensure_level(paper_level)
            for role, target in (("writing", level.writing), ("merging", level.merging)):
                for record in groups.get(role, []):
                    run = Run.load(
                        self.workspace,
                        record.name,
                        record.level,
                        record.num_entries,
                        self.params,
                        bytes.fromhex(record.merkle_root_hex),
                    )
                    target.add(run)
                    known.update(
                        record.name + suffix for suffix in RUN_SUFFIXES
                    )
        # Discard files of unfinished merges (Section 4.3).
        for name in list(self.workspace.list_files()):
            if name not in known:
                self.workspace.remove_file(name)
        self._run_seq = manifest.next_run_seq
        self._checkpoint_blk = manifest.checkpoint_blk
        self._checkpoint_puts = manifest.checkpoint_puts
        self._restart_merges()
        self._publish_view()

    @property
    def checkpoint_blk(self) -> int:
        """Highest block height durably contained in committed runs."""
        return self._checkpoint_blk

    @property
    def last_blk(self) -> int:
        """Highest block this engine has seen: writers resume above it
        (a reopened engine's ``current_blk`` is 0 until its next block)."""
        return max(self.current_blk, self._checkpoint_blk)

    def _addr_size(self) -> int:
        return self.params.system.addr_size
