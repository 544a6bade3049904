"""COLE, the storage engine (Algorithms 1, 5, 6 and 8).

One :class:`Cole` instance owns a workspace directory.  There is one
write path — the commit checkpoint walk, :meth:`Cole._cascade`, from L0
down to the first level whose writing group does not hold ``size_ratio``
runs — and ``params.async_merge`` decides when a full level's
merge lands:

* COLE (Algorithm 1): inside the commit that started it, so a run a
  deeper level of the same walk merges away is never written.  The walk
  carries L0's entries and each full level's runs down and builds them
  inline as one run where it stops; one commit can still pay for the
  whole recursive merge — the write-stall / long-tail-latency behaviour
  Figure 12 measures;
* COLE* (Algorithm 5): each full level lands the build started at its
  previous checkpoint, switches its writing/merging groups and starts
  the next build on a thread pool, to land at the level's next
  checkpoint.  Checkpoints are a function of the put stream,
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
from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.bloomfilter import hash_item
from repro.common.debuglock import maybe_debug_lock
from repro.common.errors import StorageError
from repro.common.gate import CommitGate
from repro.common.hashing import Digest, hash_concat
from repro.common.params import ColeParams
from repro.core.compound import MAX_BLK, check_blk, compound_key
from repro.core.cursor import ReadSource, ScanBounds, ScanTriple, scan_bounds, scan_sources
from repro.core.manifest import MANIFEST_NAME, Manifest, RunRecord, load_manifest, save_manifest
from repro.core.merge import BuildSpec, MergeScheduler, PendingMerge, merge_entry_streams
from repro.core.proofs import (
    MemProofItem,
    ProofItem,
    ProvenanceProof,
    ProvenanceResult,
    RunNegativeItem,
    RunProofItem,
    StubItem,
)
from repro.core.run import RUN_SUFFIXES, Entry, Run, encode_pairs
from repro.core.valuefile import ValueFile
from repro.diskio.iostats import IOStats
from repro.diskio.workspace import Workspace
from repro.mbtree import MBTree

#: Name of the advisory workspace lock file (held via flock by the CLI's
#: serve/snapshot commands).  Defined here — next to the recovery code
#: that must *not* delete it — so the two layers cannot drift apart.
WORKSPACE_LOCK_NAME = "LOCK"

#: Answer of a ``wait=False`` point read that found L0 mid-insert.
WOULD_BLOCK = object()
_NO_LOCK = nullcontext()  # guards the probe of a write-once run


def execute(workspace: Workspace, params: ColeParams, spec: BuildSpec) -> Run:
    """Build the run ``spec`` describes — flush, level merge or restart
    alike: each source's value file, opened by name through
    ``workspace``, merged oldest first with L0's pairs
    (:func:`merge_entry_streams`) and streamed into :meth:`Run.build`."""
    system = params.system
    pairs: Iterable[bytes] = spec.pairs
    if spec.sources:
        streams = [
            ValueFile(
                workspace.open_file(f"{name}.val", category="value", create=False),
                entries,
                system,
            ).iter_pairs()
            for name, entries in spec.sources
        ]
        pairs = merge_entry_streams(streams + [spec.pairs], system.key_size)
    return Run.build(workspace, spec.name, spec.level, pairs, spec.num_entries, params)


class DiskLevel:
    """On-disk level ``level`` (Sections 4 and 5): its writing group takes
    the runs committed from the level above, its merging group's runs are
    being merged into the next level by ``pending``; both oldest first,
    switched at the level's checkpoint (Algorithm 5, Figure 7).  Under
    COLE a full level merges down inside its checkpoint, so its merging
    group holds only a merge restarted from a COLE* store."""

    def __init__(self, level: int) -> None:
        self.level = level
        self.writing: List[Run] = []
        self.merging: List[Run] = []
        self.pending: Optional[PendingMerge] = None

    def all_runs(self) -> List[Run]:
        """Every committed run, in ``root_hash_list`` order."""
        return self.writing + self.merging


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

    def root(self) -> Digest:
        """This view's ``Hstate``.  The caller holds the mem lock: the
        writing L0 tree takes inserts, and MB-tree digests are computed
        lazily."""
        return hash_concat([source.digest() for source in self.roots])


class _ProvenanceWalk:
    """One provenance query (Algorithm 8) over one view, riding Algorithm
    6's search order.  Construction proves the L0 groups — which lead that
    order — under one hold of ``mem_lock``, hashing the view's root in the
    same hold when ``anchored``; :meth:`finish` then walks the write-once
    runs with no lock and assembles the proof."""

    def __init__(self, view: StoreView, mem_lock, addr: bytes, blk_low: int, blk_high: int,
                 anchored: bool) -> None:
        if blk_low > blk_high:
            raise StorageError("empty block range")
        self.view = view
        self.addr, self.blk_low, self.blk_high = addr, blk_low, blk_high
        self.addr_int = int.from_bytes(addr, "big")
        self.key_low = self.addr_int * 2**64 + blk_low - 1  # <addr, blk_low - 1>
        self.key_high = self.addr_int * 2**64 + min(blk_high + 1, MAX_BLK)
        self.found: Dict[int, bytes] = {}  # blk -> value, for our address
        self.items: Dict[str, ProofItem] = {}  # by source label
        self.done = False  # a disclosed version predates blk_low: stop early
        with mem_lock:
            for source in view.sources:
                if source.kind != "mem":
                    break
                if self.done:
                    self.items[source.label] = StubItem(digest=source.digest())
                    continue
                entries, proof = source.source.range_proof(self.key_low, self.key_high)
                self.items[source.label] = MemProofItem(proof=proof)
                self._note(entries)
            self.root = view.root() if anchored else None

    def _note(self, entries: List[Tuple[int, bytes]]) -> None:
        """Record disclosed versions of the address."""
        for key, value in entries:
            blk = key & MAX_BLK
            if key >> 64 == self.addr_int and blk <= self.blk_high:
                self.found.setdefault(blk, value)
                self.done |= blk < self.blk_low

    def finish(self) -> ProvenanceResult:
        """Walk the runs and assemble the result."""
        hashed = hash_item(self.addr)
        for source in self.view.sources:
            if self.done:
                break
            if source.kind != "run":
                continue
            run = source.source
            if hashed not in run.bloom:
                self.items[source.label] = RunNegativeItem(
                    bloom_bytes=run.bloom.to_bytes(), merkle_root=run.merkle_root
                )
                continue
            scan = run.prov_scan(self.key_low, self.key_high)
            self.items[source.label] = RunProofItem(
                entries=scan.entries, lo=scan.lo, hi=scan.hi, num_entries=run.num_entries,
                merkle_proof=scan.proof, bloom_digest=run.bloom.digest(),
            )
            self._note(scan.entries)
        # In root_hash_list order; only an unsearched run's digest (its
        # write-once commitment) is needed, as its stub.
        items: List[ProofItem] = []
        for source in self.view.roots:
            item = self.items.get(source.label)
            items.append(item if item is not None else StubItem(digest=source.digest()))
        proof = ProvenanceProof(
            addr=self.addr, blk_low=self.blk_low, blk_high=self.blk_high, items=items
        )
        found, low = self.found, self.blk_low
        versions = sorted((blk, value) for blk, value in found.items() if blk >= low)
        boundary = max(((blk, value) for blk, value in found.items() if blk < low), default=None)
        return ProvenanceResult(versions=versions, boundary_version=boundary, proof=proof)


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
        self.scheduler = MergeScheduler(
            partial(execute, self.workspace, self.params), inline=not self.params.async_merge
        )
        # The writer mutex: puts, commit checkpoints, rewind and close.
        # Readers pin a view instead, and hold the mem lock around what
        # they read of an L0 group — as put / put_many do around their
        # inserts.  Lock order: gate, then mem lock.
        self.gate = CommitGate("cole-gate")
        self._mem_lock = maybe_debug_lock("cole-mem")
        self.levels: List[DiskLevel] = []  # levels[i] is on-disk level i+1
        self._view = StoreView(0, (), ())
        self.current_blk = 0
        self.puts_total = 0
        self._run_seq = 0
        self._checkpoint_puts = 0
        self._checkpoint_blk = -1
        # Cumulative write-amplification counters: bytes_flushed counts
        # L0 flush output (user bytes entering disk), bytes_rewritten
        # counts level-merge output.  Both persist in the manifest.
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

        ``force_cascade`` overrides the capacity check (both ways).  A
        forced cascade flushes an under-full L0.  The engine's own commits
        flush L0 only once it holds ``B`` pairs, so its runs are full;
        under-full runs come only from forced cascades and from
        ``rewind_to``, which rebuilds runs without their post-target
        versions.  A level merges at ``size_ratio`` runs however small
        they are (Algorithms 1 and 5).  Passing a value derived from the
        put stream keeps ``Hstate`` deterministic.
        """
        cascade = self.needs_cascade() if force_cascade is None else force_cascade
        with self.gate.exclusive():
            if cascade:
                self._cascade()
            return self.root_digest()

    def needs_cascade(self) -> bool:
        """True when the next commit will flush L0 (capacity reached):
        without ``force_cascade`` every flushed L0 holds at least ``B``
        pairs."""
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
        ``put`` per pair; the block height is validated once per batch.  An
        address or value not of the system's length raises ``StorageError``
        before it is inserted: no run could hold it.
        """
        addr_size, value_size = self.params.system.addr_size, self.params.system.value_size
        blk = self.current_blk
        check_blk(blk)
        count = 0
        with self.gate.exclusive(), self._mem_lock:
            insert = self.mem_writing.insert
            try:
                for addr, value in items:
                    if len(addr) != addr_size:
                        raise StorageError(f"address must be {addr_size} bytes")
                    if len(value) != value_size:
                        raise StorageError(f"value must be {value_size} bytes")
                    insert(compound_key(addr, blk), value)
                    count += 1
            finally:
                self.puts_total += count

    # -- the commit checkpoint walk (Algorithms 1 and 5) -------------------------

    def _cascade(self) -> None:
        """One walk down the levels.  COLE* (Algorithm 5): each full level
        lands the build started at its previous checkpoint, switches groups
        and starts the next build (:meth:`_checkpoint_level`).  COLE
        (Algorithm 1) lands every build inside this commit, so it builds
        only the run the walk stops at (:meth:`_merge_down`)."""
        if not self.params.async_merge:
            return self._merge_down()
        moved = self._checkpoint_mem()
        obsolete: List[Run] = []
        index = 0
        while index < len(self.levels) and self._overflows(self.levels[index].writing):
            obsolete += self._checkpoint_level(index)
            index += 1
        if moved or index:  # else a forced cascade, empty L0, nothing in flight
            self._commit_walk(obsolete)

    def _merge_down(self) -> None:
        """COLE's walk carries the *incoming* sources — L0's entries, then
        each full level's writing runs placed before them (oldest first) —
        and builds them into exactly one run, of the level where it stops:
        the flush and the merges a deeper level would merge away in this
        same commit are never written.  A full level lands its restarted
        merge (recovery, rewind) first, as its checkpoint would.  Nothing
        is applied until the build succeeded, so a failure leaves L0, the
        groups, the manifest and the files as they were."""
        entries = list(self.mem_writing.items())
        sources: List[Run] = []
        landing: List[Run] = []  # the restarted merge a full level lands below it
        incoming = len(entries)
        index = 0
        while index < len(self.levels):
            level = self.levels[index]
            runs = level.writing + landing
            if not self._overflows(runs, incoming):
                break
            landing = [level.pending.wait()] if level.pending is not None else []
            sources = runs + sources
            incoming += sum(run.num_entries for run in runs)
            index += 1
        if not incoming:
            return  # forced cascade, empty L0, nothing full: a no-op
        target = index + 1
        # The run takes the last of the names its elided steps would have.
        steps = bool(entries) + index
        name = f"L{target}_{self._run_seq + steps - 1:08d}"
        run = self.scheduler.spawn(self._spec(name, target, entries, sources)).wait()
        self._run_seq += steps
        obsolete: List[Run] = []
        for level in self.levels[:index]:
            obsolete += self._land_merge(level) + level.writing
            level.writing = []
        self._ensure_level(target).writing.append(run)
        self._count_written(run)
        if entries:
            self._checkpoint_puts, self._checkpoint_blk = self.puts_total, self.current_blk
            self.mem_writing = self._new_mem_group()
        self._commit_walk(obsolete)

    def _overflows(self, runs: List[Run], incoming: int = 0) -> bool:
        """True when a level's writing ``runs`` plus, when ``incoming``
        entries arrive, the one run they make reach ``size_ratio`` runs."""
        return len(runs) + (incoming > 0) >= self.params.size_ratio

    def _commit_walk(self, obsolete: List[Run]) -> None:
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
        entries = list(self.mem_writing.items())
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
        spec = self._spec(self._next_run_name(1), 1, entries, [])
        return self.scheduler.spawn(spec, checkpoint_puts, checkpoint_blk)

    def _land_flush(self) -> bool:
        """Commit the pending L0 flush, if there is one: its run joins
        level 1 and replaces the merging tree it was built from."""
        pending = self.mem_pending
        if pending is None:
            return False
        run = pending.wait()
        self._ensure_level(1).writing.append(run)
        self._count_written(run)
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
        level.pending = self._start_merge(index, level.writing)
        # Algorithm 5 line 13: the full writing group becomes the merging one.
        level.writing, level.merging = level.merging, level.writing
        return obsolete

    def _start_merge(self, index: int, runs: List[Run]) -> PendingMerge:
        """Merge ``runs`` — level ``index + 1``'s merging group, or the
        writing group about to become it — into one run of the next level."""
        target = index + 2
        return self.scheduler.spawn(self._spec(self._next_run_name(target), target, [], runs))

    def _land_merge(self, level: DiskLevel) -> List[Run]:
        """Commit ``level``'s pending merge, if there is one: the output
        joins its target level and the merging group it replaces is
        retired in the same step — a merging group leaves no other way,
        or its runs would shadow newer data merged below them."""
        pending = level.pending
        if pending is None:
            return []
        run = pending.wait()
        self._ensure_level(run.level).writing.append(run)
        self._count_written(run)
        level.pending = None
        runs, level.merging = level.merging, []
        return runs

    def _count_written(self, run: Run) -> None:
        """Add a landed run to the counters: ``bytes_flushed`` on level 1,
        ``bytes_rewritten`` and its level's row deeper.  Counted when it
        lands, not when the build finishes, so the counters stay
        deterministic across merge timing and crash/restart: an aborted
        merge's bytes are never counted, its restart's exactly once."""
        written = run.storage_bytes()
        if run.level == 1:
            self.bytes_flushed += written
        else:
            self.bytes_rewritten += written
            self.level_bytes_rewritten[run.level] = (
                self.level_bytes_rewritten.get(run.level, 0) + written
            )

    def _restart_merges(self) -> None:
        """Give every non-empty merging group its merge back: recovery of
        an aborted merge (Section 4.3) and rewind, in either mode."""
        for index, level in enumerate(self.levels):
            if level.merging:
                level.pending = self._start_merge(index, level.merging)

    # -- shared write helpers -------------------------------------------------------

    def _next_run_name(self, level: int) -> str:
        name = f"L{level}_{self._run_seq:08d}"
        self._run_seq += 1
        return name

    def _spec(self, name: str, level: int, entries: List[Entry], sources: List[Run]) -> BuildSpec:
        """The build of L0's drained ``entries`` and ``sources`` (oldest
        first) into run ``name``."""
        pairs = tuple(encode_pairs(entries, self.params.system.key_size))
        total = len(pairs) + sum(run.num_entries for run in sources)
        return BuildSpec(name, level, total, pairs, tuple((r.name, r.num_entries) for r in sources))

    def _new_mem_group(self) -> MBTree:
        return MBTree(key_width=self.params.system.key_size)

    def _publish_view(self) -> None:
        """Swap in the view of the current structure: the last step of
        every structural mutation (gate held exclusive)."""
        mems = [ReadSource.mem("mem:w", self.mem_writing)]
        if self.params.async_merge:
            mems.append(ReadSource.mem("mem:m", self.mem_merging))
        sources, roots = list(mems), list(mems)
        for level in self.levels:
            for role, group in (("w", level.writing), ("m", level.merging)):
                runs = [ReadSource.run(f"run:{run.name}:{role}", run) for run in group]
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
        with self.gate.exclusive():
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
        """The ordered (label, digest) list that ``Hstate`` hashes (§3.2),
        of the current view, under the mem lock."""
        view = self._view
        with self._mem_lock:
            return [(source.label, source.digest()) for source in view.roots]

    def root_digest(self) -> Digest:
        """``Hstate``: the digest over ``root_hash_list``.  Takes no gate,
        so a caller holding it (``commit_block``, ``repro.wal.snapshot``)
        calls it too."""
        view = self._view
        with self._mem_lock:
            return view.root()

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
        continuation protocol builds on.  Takes no gate: it walks
        :meth:`_pinned_sources` of the current view.
        """
        bounds = scan_bounds(
            addr_low, addr_high, at_blk=at_blk, limit=limit, addr_size=self._addr_size()
        )
        return scan_sources(self._pinned_sources(bounds), bounds)

    def _pinned_sources(self, bounds: ScanBounds) -> List[ReadSource]:
        """The view's sources as one scan walks them: its L0 groups
        copied under one mem-lock hold (:meth:`ReadSource.pinned`), so the
        scan describes one instant and walks the rest with no lock."""
        view = self._view
        with self._mem_lock:
            return [source.pinned(bounds) for source in view.sources]

    # -- provenance queries (Algorithm 8) ----------------------------------------

    def prov_query(self, addr: bytes, blk_low: int, blk_high: int) -> ProvenanceResult:
        """Historical values of ``addr`` in ``[blk_low, blk_high]`` + proof."""
        return self._pin_provenance(addr, blk_low, blk_high).finish()

    def prov_query_anchored(
        self, addr: bytes, blk_low: int, blk_high: int
    ) -> Tuple[ProvenanceResult, Digest]:
        """:meth:`prov_query` plus the ``Hstate`` the proof verifies
        against: the view's root, hashed in the mem-lock hold that proves
        its L0 groups, so no insert or checkpoint slides between proof
        and anchor (the serving layer's PROV op hands both to remote
        verifiers)."""
        walk = self._pin_provenance(addr, blk_low, blk_high, anchored=True)
        return walk.finish(), walk.root

    def _pin_provenance(
        self, addr: bytes, blk_low: int, blk_high: int, anchored: bool = False
    ) -> _ProvenanceWalk:
        """A provenance walk of the current view, its L0 step done."""
        return _ProvenanceWalk(self._view, self._mem_lock, addr, blk_low, blk_high, anchored)

    # =========================================================================
    # accounting / lifecycle
    # =========================================================================

    def storage_bytes(self) -> int:
        """Total on-disk footprint (the storage series of Figures 9-10)."""
        with self.gate.exclusive():
            return self.workspace.storage_bytes()

    def num_disk_levels(self) -> int:
        """Deepest on-disk level holding a run (``d_COLE`` of Table 1)."""
        runs = (s.source for s in self._view.sources if s.kind == "run")
        return max((run.level for run in runs), default=0)

    def compaction_stats(self) -> dict:
        """Write-amplification accounting of the cascade's builds.

        Each build counts once, when it lands: ``bytes_flushed`` if on
        level 1, else ``bytes_rewritten`` and its level's row, so their
        sum is every byte the builds wrote.  A COLE cascade that reaches
        level 2 or deeper is one build there: its L0 entries count as
        rewritten.  ``write_amp`` is ``bytes_rewritten / bytes_flushed``.
        The per-level rows report the live run layout (count, entries,
        on-disk bytes) plus, below level 1 (which only flushes reach),
        the bytes ever written *onto* that level, so `repro query
        compaction` can show where rewriting concentrates.
        """
        per_level: Dict[int, dict] = {}
        with self.gate.exclusive():
            for level in self.levels:
                runs = level.all_runs()
                row = per_level[level.level] = {
                    "runs": len(runs),
                    "entries": sum(run.num_entries for run in runs),
                    "bytes": sum(run.storage_bytes() for run in runs),
                }
                if level.level > 1:
                    row["bytes_rewritten"] = self.level_bytes_rewritten.get(level.level, 0)
            flushed = self.bytes_flushed
            rewritten = self.bytes_rewritten
        return {
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
        """Join merges, stop the merge workers, and drop the view, the
        levels and the file-handle table.

        Returns without waiting for readers: one that pinned a view
        earlier — a scan mid-walk — finishes on its runs, and each
        descriptor closes with its last holder, as a merged-away run's
        does.
        """
        self.wait_for_merges()
        self.scheduler.close()
        with self.gate.exclusive():
            self._view = StoreView(self._view.epoch + 1, (), ())
            self.levels = []
            self.mem_pending = None
            self.workspace.release()

    # =========================================================================
    # durability (Section 4.3)
    # =========================================================================

    def _save_manifest(self) -> None:
        manifest = Manifest(
            checkpoint_blk=self._checkpoint_blk,
            checkpoint_puts=self._checkpoint_puts,
            next_run_seq=self._run_seq,
            async_merge=self.params.async_merge,
            bytes_flushed=self.bytes_flushed,
            bytes_rewritten=self.bytes_rewritten,
            level_bytes_rewritten=dict(self.level_bytes_rewritten),
        )
        manifest.levels = {}
        for level in self.levels:
            groups: Dict[str, List[RunRecord]] = {"writing": [], "merging": []}
            for role, group in (("writing", level.writing), ("merging", level.merging)):
                for run in group:
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
        self.bytes_flushed = manifest.bytes_flushed
        self.bytes_rewritten = manifest.bytes_rewritten
        self.level_bytes_rewritten = dict(manifest.level_bytes_rewritten)
        # The lock is the CLI's advisory workspace guard: not engine
        # state, but deleting it mid-hold would let a second process
        # relock a fresh inode and defeat it.
        known = {MANIFEST_NAME, WORKSPACE_LOCK_NAME}
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
                    target.append(run)
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
        """Highest block height whose writes are all in the runs the
        manifest names; durable past a machine crash once the manifest
        names it (:meth:`Run.build` fsyncs a run before it returns)."""
        return self._checkpoint_blk

    @property
    def last_blk(self) -> int:
        """Highest block this engine has seen: writers resume above it
        (a reopened engine's ``current_blk`` is 0 until its next block)."""
        return max(self.current_blk, self._checkpoint_blk)

    def _addr_size(self) -> int:
        return self.params.system.addr_size
