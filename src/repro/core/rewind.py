"""State rewind — the paper's future-work extension (Section 10).

COLE is designed for non-forking chains because the LSM merge makes
in-place deletion awkward (Section 4.3).  The paper leaves "efficient
strategies to remove the rewound states" as future work; this module
implements the straightforward-but-correct strategy: filter every
structure to versions at or below the target block and rebuild the
affected runs.  Cost is O(n) over the affected runs — acceptable for the
rare reorg — and the result is a fully consistent engine whose
``Hstate`` is deterministic (two nodes rewinding the same chain to the
same height agree byte-for-byte).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.compound import MAX_BLK, blk_of_int
from repro.core.merge import BuildSpec
from repro.core.run import Run


def rewind_to(cole, target_blk: int) -> int:
    """Discard every state version newer than ``target_blk``.

    Returns the number of versions discarded.  Pending builds are joined
    and their outputs dropped, then restarted over the filtered groups;
    the engine afterwards behaves as if block ``target_blk`` had just
    been committed.
    """
    if target_blk < 0:
        raise ValueError("cannot rewind to a negative block height")
    flush = cole.mem_pending
    for pending in cole._pending_merges():  # the caller holds the gate
        pending.wait().delete()  # uncommitted: rebuilt below, filtered
    cole.mem_pending = None
    for level in cole.levels:
        level.pending = None
    cole.mem_writing, dropped = _rewind_mem_group(cole, cole.mem_writing, target_blk)
    cole.mem_merging, removed = _rewind_mem_group(cole, cole.mem_merging, target_blk)
    dropped += removed
    obsolete: List[Run] = []
    for level in cole.levels:
        for group in (level.writing, level.merging):
            rebuilt: List[Run] = []
            for run in group:
                kept, removed, replaced = _filter_run(cole, run, target_blk)
                dropped += removed
                if kept is not None:
                    rebuilt.append(kept)
                if replaced is not None:
                    obsolete.append(replaced)
            group[:] = rebuilt  # no view names a level's lists
    cole.current_blk = min(cole.current_blk, target_blk)
    cole._checkpoint_blk = min(cole._checkpoint_blk, target_blk)
    # What is left of each merging group gets its build back: a merging
    # group is only ever retired by the landing of its own merge.
    if len(cole.mem_merging):
        cole.mem_pending = cole._start_flush(
            list(cole.mem_merging.items()),
            flush.checkpoint_puts,
            min(flush.checkpoint_blk, target_blk),
        )
    cole._restart_merges()
    cole._save_manifest()
    # Rebuilt-away runs are deleted only after the manifest stopped
    # naming them; earlier deletion leaves a crash window where recovery
    # loads a manifest whose runs are gone (Section 4.3).
    for run in obsolete:
        run.delete()
    return dropped


def _rewind_mem_group(cole, tree, target_blk: int):
    """``(tree, versions removed)``: one L0 MB-tree filtered into a fresh
    one — never in place, published views still name the old one."""
    survivors: List[Tuple[int, bytes]] = [
        (key, value)
        for key, value in tree.items()
        if blk_of_int(key) <= target_blk
    ]
    removed = len(tree) - len(survivors)
    if removed == 0:
        return tree, 0
    rebuilt = cole._new_mem_group()
    for key, value in survivors:
        rebuilt.insert(key, value)
    return rebuilt, removed


def _filter_run(cole, run: Run, target_blk: int):
    """Rebuild ``run`` without post-target versions.

    Returns ``(new_run_or_None, versions_removed, replaced_run_or_None)``;
    when a rebuild happens the original run is handed back for deferred
    deletion (after the manifest is saved), not deleted here.  The
    rebuild is a pairs-only :class:`BuildSpec` run through the engine's
    scheduler, like every other build.
    """
    system = cole.params.system
    heights = slice(system.addr_size, system.key_size)
    # A pair's key ends in its big-endian 8-byte height: compared as
    # bytes it orders as the height does (no height exceeds MAX_BLK).
    limit = min(target_blk, MAX_BLK).to_bytes(8, "big")
    survivors = tuple(pair for pair in run.value_file.iter_pairs() if pair[heights] <= limit)
    removed = run.num_entries - len(survivors)
    if removed == 0:
        return run, 0, None
    if not survivors:
        return None, removed, run
    spec = BuildSpec(cole._next_run_name(run.level), run.level, len(survivors), survivors, ())
    return cole.scheduler.spawn(spec).wait(), removed, run
